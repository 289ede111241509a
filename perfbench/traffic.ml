(* Closed-loop load over loopback TCP and checks on served answers. *)

module P = Service.Protocol

(* ---- per-run scratch directory inside the checkout ------------------- *)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* [.perfbench-run/<pid>], removed at exit with the parent if empty. *)
let run_dir () =
  let root = ".perfbench-run" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let d = Filename.concat root (string_of_int (Unix.getpid ())) in
  remove_tree d;
  Unix.mkdir d 0o755;
  at_exit (fun () ->
      remove_tree d;
      try Unix.rmdir root with Unix.Unix_error _ -> ());
  d

(* ---- the load --------------------------------------------------------- *)

type 'a result = { op : 'a; latency : float; reply : P.response }

let ok r = match r.reply with P.Resp_ok _ -> true | P.Resp_err _ -> false

(* Play every op of [ops] from [Servers.clients] connections, each
   sending its next request when the previous reply arrives. Returns
   the results in completion order and the wall time. *)
let play ~port ops send =
  let ops = Array.of_list ops in
  let next = Atomic.make 0 in
  let mu = Mutex.create () in
  let done_ = ref [] in
  let worker () =
    let c = Service.Client.connect ~host:Servers.host ~port () in
    Fun.protect
      ~finally:(fun () -> Service.Client.close c)
      (fun () ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < Array.length ops then begin
            let reply, latency = Measure.time (fun () -> send c ops.(i)) in
            Mutex.protect mu (fun () -> done_ := { op = ops.(i); latency; reply } :: !done_);
            loop ()
          end
        in
        loop ())
  in
  let t0 = Measure.now () in
  let threads = List.init Servers.clients (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  (List.rev !done_, Measure.now () -. t0)

(* One request on a fresh connection. *)
let once ~port f =
  let c = Service.Client.connect ~host:Servers.host ~port () in
  Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () -> f c)

(* ---- answers ---------------------------------------------------------- *)

type answer = { status : string; csv : string }

(* A reply's status line and package CSV; the wall-time line is
   dropped, so two answers compare byte for byte. *)
let answer_of = function
  | P.Resp_ok body -> (
    match P.parse_result body with
    | Ok (status, _wall, csv) -> Ok { status; csv }
    | Error e -> Error ("malformed reply: " ^ e))
  | P.Resp_err (code, msg) -> Error (P.code_name code ^ ": " ^ msg)

(* The objective the server printed on its status line ("..., obj=V"). *)
let reported_objective status =
  match String.rindex_opt status '=' with
  | Some i when i >= 3 && String.sub status (i - 3) 3 = "obj" ->
    float_of_string_opt (String.sub status (i + 1) (String.length status - i - 1))
  | _ -> None

let memo f =
  let h = Hashtbl.create 64 in
  fun k ->
    match Hashtbl.find_opt h k with
    | Some v -> v
    | None ->
      let v = f k in
      Hashtbl.replace h k v;
      v

(* Checks served answers to queries over one table: the independent
   checker on the reply's rows, and the LP bound. Each distinct
   (query, answer) pair is checked once. Returns the checked objective
   and its ratio to the bound. *)
let checker tbl =
  let rel = Checker.relation tbl in
  let parsed = memo Paql.Parser.parse_exn in
  let bound =
    memo (fun q -> Bound.lp (Paql.Translate.compile_exn (Relalg.Relation.schema rel) (parsed q)) rel)
  in
  memo (fun (q, (a : answer)) ->
      let ast = parsed q in
      match
        Checker.check ?reported:(reported_objective a.status) tbl ast (Checker.csv_rows a.csv)
      with
      | Error e ->
        Measure.problem "served %s: %s" q e;
        None
      | Ok None -> None
      | Ok (Some obj) -> (
        if Paql.Ast.is_stochastic ast then None
        else
          let maximize = Bound.maximizes ast in
          match bound q with
          | None -> None
          | Some b ->
            if not (Bound.respects ~maximize ~bound:b obj) then
              Measure.problem "served %s: objective %g beats the LP bound %g" q obj b;
            Bound.ratio ~maximize ~bound:b obj))
