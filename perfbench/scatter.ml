(* shard-scatter: a coordinator scattering SketchRefine over two shard
   servers (no replicas), each in its own process, under a closed loop
   of distinct queries from two connections.

   The table is fixed; the seed draws the queries. A run is whole
   rounds: each starts a fresh fleet (the set-up), plays the stream,
   then the write probe — APPEND 3 rows through the coordinator, then
   one query — which must answer ok. It answers degraded today: after
   an APPEND the coordinator re-partitions from scratch while every
   shard updates its partitioning incrementally, the ASSIGN divergence
   check fails and the breakers open. The probe's inputs do not depend
   on the seed, so it fails once per round in every run. *)

open Traffic

let rows = 3_000
let data_seed = 1
let shards = 2
let tau = max 48 (rows / 4)
let round_queries = 300

(* Thin r-band windows over a partitioning on ra,dec: the top-objective
   rows scatter across groups, so refines spread over both shards. The
   draw is stratified — package sizes cycle through 6..14 and window
   centres sweep evenly across +-3% of the mean, each jittered by the
   seed — so every seed gets the same spread of query shapes. *)
let queries ~seed rel =
  let col = Relalg.Relation.column_float rel "r" in
  let mu_r = Array.fold_left ( +. ) 0. col /. float_of_int (Array.length col) in
  let rng = Random.State.make [| seed; 0x5ca7 |] in
  List.init round_queries (fun i ->
      let k = 6 + (i mod 9) in
      let u = (float_of_int i +. Random.State.float rng 1.) /. float_of_int round_queries in
      let center = float_of_int k *. mu_r *. (0.97 +. (0.06 *. u)) in
      Printf.sprintf
        "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT COUNT(P.*) = %d AND \
         SUM(P.r) BETWEEN %.6f AND %.6f MAXIMIZE SUM(P.petro_rad)"
        k (0.99 *. center) (1.01 *. center))

(* Part of the set-up: the first query makes the coordinator partition
   the table and ASSIGN the groups. *)
let warmup_query =
  "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT COUNT(P.*) = 3 MAXIMIZE \
   SUM(P.petro_rad)"

let probe_csv =
  Relalg.Csv.to_string (Datagen.Workload.append_batch ~dataset:`Galaxy ~rows:3 ~seed:77)

let probe_query =
  "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT COUNT(P.*) = 8 AND \
   SUM(P.r) <= 150 MAXIMIZE SUM(P.petro_rad)"

type round = {
  setup : float;
  results : string result list;
  wall : float;
  append : P.response;
  probe : P.response;
  rss : float;  (* coordinator plus shards *)
  coord : Servers.stats option;
  shard_stats : Servers.stats list;
  shard_sketch_ms : float list;  (* SKETCH RPCs sent straight to the shards *)
  trace_s : float;
}

let play_round ~data ~queries ~trace =
  let t0 = Measure.now () in
  let tau_s = string_of_int tau in
  let fleet = List.init shards (fun _ -> Servers.spawn [ "shard"; "--data"; data; "--tau"; tau_s ]) in
  Fun.protect
    ~finally:(fun () -> List.iter Servers.stop fleet)
    (fun () ->
      let co =
        Servers.spawn
          ([ "coordinator"; "--data"; data; "--tau"; tau_s ]
          @ List.map (fun (s : Servers.t) -> string_of_int s.port) fleet)
      in
      Fun.protect
        ~finally:(fun () -> Servers.stop co)
        (fun () ->
          (match answer_of (once ~port:co.port (fun c -> Service.Client.query c warmup_query)) with
          | Ok _ -> ()
          | Error e -> Measure.problem "shard-scatter set-up query: %s" e);
          let setup = Measure.now () -. t0 in
          let results, wall = play ~port:co.port queries Service.Client.query in
          let t_trace = Measure.now () in
          let shard_sketch_ms, coord, shard_stats =
            if not trace then ([], None, [])
            else
              ( List.concat_map
                  (fun (s : Servers.t) ->
                    once ~port:s.port (fun c ->
                        List.filteri (fun i _ -> i < 10) queries
                        |> List.map (fun q ->
                               1e3 *. snd (Measure.time (fun () ->
                                   Service.Client.roundtrip c (P.Sketch q))))))
                  fleet,
                Some (Servers.stats co.port),
                List.map (fun (s : Servers.t) -> Servers.stats s.port) fleet )
          in
          let trace_s = Measure.now () -. t_trace in
          let append, probe =
            once ~port:co.port (fun c ->
                let a = Service.Client.append c ~csv:probe_csv in
                (a, Service.Client.query c probe_query))
          in
          let rss =
            List.fold_left
              (fun a s -> a +. Servers.peak_rss_mb s)
              (Servers.peak_rss_mb co) fleet
          in
          { setup; results; wall; append; probe; rss; coord; shard_stats; shard_sketch_ms;
            trace_s }))

(* The reference: one in-process sketchrefine server over the same
   table and partitioning config, asked the same queries. *)
let reference ~rel queries =
  let srv =
    Service.Server.start { (Servers.shard_config ~tau) with result_cache = 0 } rel
  in
  Fun.protect
    ~finally:(fun () -> Service.Server.stop srv)
    (fun () ->
      once ~port:(Service.Server.port srv) (fun c ->
          let stream = List.map (fun q -> (q, answer_of (Service.Client.query c q))) queries in
          ignore (Service.Client.append c ~csv:probe_csv);
          (stream, answer_of (Service.Client.query c probe_query))))

let run ~seed ~seconds ~trace =
  let dir = run_dir () in
  let rel = Datagen.Galaxy.generate ~seed:data_seed rows in
  let data = Filename.concat dir "base.seg" in
  Store.Segment.write data rel;
  let queries = queries ~seed rel in
  let rounds = ref [] and measured = ref 0. in
  while !rounds = [] || !measured < seconds do
    let r = play_round ~data ~queries ~trace in
    measured := !measured +. r.wall;
    rounds := r :: !rounds
  done;
  let rounds = List.rev !rounds in
  (* outputs: byte-identical to the single node, the checker, LP bounds *)
  let ref_stream, ref_probe = reference ~rel queries in
  let expected = Hashtbl.create 512 in
  List.iter (fun (q, a) -> Hashtbl.replace expected q a) ref_stream;
  let check = checker (Checker.table rel) in
  let probe_tbl = Checker.table rel in
  Checker.append probe_tbl (Relalg.Csv.of_string probe_csv);
  let check_probe = checker probe_tbl in
  let ratios = Hashtbl.create 512 in
  let failed = ref 0 and attempted = ref 0 in
  let fail what e =
    incr failed;
    Printf.eprintf "perfbench: shard-scatter %s failed: %s\n%!" what e
  in
  List.iter
    (fun r ->
      List.iter
        (fun res ->
          incr attempted;
          let got = answer_of res.reply in
          if Hashtbl.find_opt expected res.op <> Some got then
            Measure.problem "shard %s: reply differs from the single-node server's" res.op;
          match got with
          | Error e -> fail "query" e
          | Ok a -> (
            match check (res.op, a) with
            | Some x -> Hashtbl.replace ratios res.op x
            | None -> ()))
        r.results;
      attempted := !attempted + 2;
      (match r.append with
      | P.Resp_ok _ -> ()
      | P.Resp_err (code, msg) -> fail "probe APPEND" (P.code_name code ^ ": " ^ msg));
      match answer_of r.probe with
      | Error e -> fail "write-probe query" e
      | Ok a ->
        ignore (check_probe (probe_query, a));
        if Ok a <> ref_probe then
          Measure.problem "write probe: reply differs from the single-node server's")
    rounds;
  (* every round replays the same queries: each query's latency is its
     median over the rounds, and the percentiles are over the queries *)
  let lat_ms =
    let per_query = Hashtbl.create 512 in
    List.iter
      (fun r ->
        List.iter
          (fun res ->
            if ok res then
              Hashtbl.replace per_query res.op
                ((res.latency *. 1e3)
                :: Option.value ~default:[] (Hashtbl.find_opt per_query res.op)))
          r.results)
      rounds;
    Hashtbl.fold (fun _ ls acc -> Measure.median ls :: acc) per_query []
  in
  let ok_ops =
    List.fold_left (fun a r -> a + List.length (List.filter ok r.results)) 0 rounds
  in
  let wall = List.fold_left (fun a r -> a +. r.wall) 0. rounds in
  let e2e =
    [
      ("setup_s", Measure.median (List.map (fun r -> r.setup) rounds));
      ("peak_rss_mb", Measure.median (List.map (fun r -> r.rss) rounds));
      ("ops_per_s", float_of_int ok_ops /. wall);
      ("query_p50_ms", Measure.median lat_ms);
      ("query_p95_ms", Measure.percentile lat_ms 0.95);
      ("query_geomean_ms", Measure.geomean lat_ms);
      ("objective_ratio", Measure.geomean (Hashtbl.fold (fun _ x acc -> x :: acc) ratios []));
    ]
  in
  let layers =
    if not trace then []
    else
      let per_round f = Measure.mean (List.map f rounds) in
      let coord f = per_round (fun r -> match r.coord with Some s -> f s | None -> 0.) in
      let shard_mean name =
        per_round (fun r ->
            Measure.mean (List.map (fun s -> Servers.stage_mean s name) r.shard_stats))
      in
      let shard_sum name =
        per_round (fun r -> List.fold_left (fun a s -> a +. Servers.counter s name) 0. r.shard_stats)
      in
      (* the set-up query and the stream *)
      let queries_per_round = float_of_int (List.length queries + 1) in
      [
        ("coord.partition_ms", coord (fun s -> Servers.stage_mean s "partition"));
        ("coord.sketch_ms", coord (fun s -> Servers.stage_mean s "sketch"));
        ("coord.refine_ms", coord (fun s -> Servers.stage_mean s "refine"));
        ("coord.total_ms", coord (fun s -> Servers.stage_mean s "total"));
        ("shard.sketch_ms", per_round (fun r -> Measure.mean r.shard_sketch_ms));
        ("shard.refine_ms", shard_mean "shard_refine");
        ("shard.ctx_ms", shard_mean "shard_ctx");
        (* the coordinator's refine stage is a query's whole refine
           loop; the shards' is one REFINE RPC *)
        ("coord.rpc_overhead_ms",
         coord (fun s -> Servers.stage_mean s "refine")
         -. (shard_mean "shard_refine" *. shard_sum "shard_refines" /. queries_per_round));
        ("coord.refine_rpcs_per_query", shard_sum "shard_refines" /. queries_per_round);
        ("coord.retries", coord (fun s -> Servers.counter s "shard_retries"));
        ("trace.overhead_pct", 100. *. per_round (fun r -> r.trace_s /. r.wall));
      ]
  in
  let sizes =
    [ ("galaxy_rows", rows); ("data_seed", data_seed); ("shards", shards); ("tau", tau);
      ("round_queries", round_queries); ("rounds", List.length rounds) ]
  in
  (e2e, layers, !attempted, !failed, sizes)
