(* The server programs the served workloads talk to, each in a process
   of its own, so the load generator's threads never share a runtime
   lock with them and each process's memory high-water mark is its own.
   The benchmark executable doubles as those programs:

     perfbench serve mixed --data SEG --wal DIR
     perfbench serve shard --data SEG --tau T
     perfbench serve coordinator --data SEG --tau T PORT...

   Each loads its table from a segment file, prints "port N" on stdout
   once it accepts connections, and serves until SIGTERM. *)

let host = "127.0.0.1"

(* Two connections drive every served workload, and two server workers
   serve them (the machine has two cores). *)
let clients = 2

(* Wall-clock caps far beyond any run: no time limit decides an answer. *)
let unreached = { Ilp.Branch_bound.default_limits with max_seconds = 3600. }

(* serve-mixed: sketchrefine over the query's own attributes (the
   default), plan and result caches, a WAL. *)
let mixed_config wal =
  {
    (Service.Server.default_config ()) with
    Service.Server.workers = clients;
    queue = 32;
    result_cache = 256;
    plan_cache = 64;
    method_ = Service.Server.Sketch_refine;
    limits = unreached;
    request_seconds = 3600.;
    log_every = 0.;
    wal_dir = Some wal;
  }

(* shard-scatter: partitioned on ra,dec as the coordinator is. *)
let shard_attrs = [ "ra"; "dec" ]

let shard_config ~tau =
  {
    (Service.Server.default_config ()) with
    Service.Server.workers = clients;
    queue = 32;
    method_ = Service.Server.Sketch_refine;
    attrs = shard_attrs;
    tau = Some tau;
    limits = unreached;
    request_seconds = 3600.;
    log_every = 0.;
  }

let coordinator_config ~tau =
  {
    (Service.Coordinator.default_config ()) with
    Service.Coordinator.attrs = shard_attrs;
    tau = Some tau;
    limits = unreached;
    request_seconds = 3600.;
    connect_timeout = 5.;
    rpc_seconds = 30.;
  }

let usage () =
  prerr_endline
    "usage: perfbench serve (mixed --data SEG --wal DIR | shard --data SEG --tau T \
     | coordinator --data SEG --tau T PORT...)";
  exit 2

(* Entry point of a server process. *)
let serve argv =
  let port, stop =
    match argv with
    | [ "mixed"; "--data"; data; "--wal"; wal ] ->
      let srv = Service.Server.start (mixed_config wal) (Store.Segment.read data) in
      (Service.Server.port srv, fun () -> Service.Server.stop srv)
    | [ "shard"; "--data"; data; "--tau"; tau ] ->
      let tau = int_of_string tau in
      let srv = Service.Server.start (shard_config ~tau) (Store.Segment.read data) in
      (Service.Server.port srv, fun () -> Service.Server.stop srv)
    | "coordinator" :: "--data" :: data :: "--tau" :: tau :: (_ :: _ as ports) ->
      let specs =
        List.map
          (fun p ->
            { Service.Coordinator.primary = { ep_host = host; ep_port = int_of_string p };
              replica = None; wal = None })
          ports
      in
      let co =
        Service.Coordinator.start
          (coordinator_config ~tau:(int_of_string tau))
          specs (Store.Segment.read data)
      in
      (Service.Coordinator.port co, fun () -> Service.Coordinator.stop co)
    | _ -> usage ()
  in
  Printf.printf "port %d\n%!" port;
  let stopping = Atomic.make false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stopping true));
  while not (Atomic.get stopping) do
    Thread.delay 0.02
  done;
  stop ();
  exit 0

(* ---- the parent's side ------------------------------------------------ *)

type t = { pid : int; port : int }

let running : t list ref = ref []

(* Peak resident set of a running server, MB. *)
let peak_rss_mb s = Measure.peak_rss_mb ~pid:(string_of_int s.pid) ()

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] s.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ();
  running := List.filter (fun x -> x.pid <> s.pid) !running

let () = at_exit (fun () -> List.iter stop !running)

(* Start [perfbench serve ARGS] and wait until it listens. *)
let spawn args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: "serve" :: args)) Unix.stdin out_w
      Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match Scanf.sscanf_opt line "port %d" Fun.id with
  | Some port ->
    let s = { pid; port } in
    running := s :: !running;
    s
  | None ->
    stop { pid; port = 0 };
    failwith ("server did not start: perfbench serve " ^ String.concat " " args)

(* ---- STATS ------------------------------------------------------------ *)

type stats = {
  counters : (string, float) Hashtbl.t;  (* counters and gauges *)
  stages : (string, float * float) Hashtbl.t;  (* count, mean ms *)
}

let parse_stats text =
  let s = { counters = Hashtbl.create 32; stages = Hashtbl.create 16 } in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | "stage" :: name :: "count" :: n :: "mean_ms" :: m :: _ ->
        Hashtbl.replace s.stages name (float_of_string n, float_of_string m)
      | [ "gauge"; name; v ] | [ name; v ] -> (
        match float_of_string_opt v with
        | Some v -> Hashtbl.replace s.counters name v
        | None -> ())
      | _ -> ())
    (String.split_on_char '\n' text);
  s

let stats port =
  let c = Service.Client.connect ~host ~port () in
  Fun.protect
    ~finally:(fun () -> Service.Client.close c)
    (fun () ->
      match Service.Client.stats c with
      | Service.Protocol.Resp_ok text -> parse_stats text
      | Service.Protocol.Resp_err (_, msg) -> failwith ("STATS: " ^ msg))

let counter s name = Option.value ~default:0. (Hashtbl.find_opt s.counters name)

let stage_mean s name =
  match Hashtbl.find_opt s.stages name with Some (_, m) -> m | None -> 0.

let stage_count s name =
  match Hashtbl.find_opt s.stages name with Some (n, _) -> n | None -> 0.
