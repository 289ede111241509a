(* serve-mixed: one sketchrefine server with a WAL under mixed traffic —
   fresh queries, verbatim repeats, small APPENDs and a few WITH
   PROBABILITY queries — from two closed-loop connections.

   The table is fixed; the seed draws the traffic. A run is whole
   rounds: each starts a fresh server (the set-up) and plays its own
   stream, drawn from the seed and the round number. *)

open Traffic

let rows = 3_000
let data_seed = 1
let round_ops = 300

(* Every [stochastic_every]-th operation is a WITH PROBABILITY query: a
   fixed share, so the mix of ~200ms stochastic solves does not swing
   with the seed. *)
let stochastic_every = 40

type op = Query of string | Stochastic of string | Append of string

let is_query = function Query _ -> true | _ -> false

(* [Workload.mixed_ops] (fresh queries, ~50% verbatim repeats, an APPEND
   of 1-5 rows every 20th entry) with stochastic queries from
   [Workload.mixed] woven in. *)
let ops ~seed rel =
  let det =
    Datagen.Workload.mixed_ops ~seed ~repeat_rate:0.5 ~appends:(round_ops / 20)
      ~dataset:`Galaxy ~n:round_ops rel
  in
  let stoch =
    Datagen.Workload.mixed ~seed:(seed + 1) ~repeat_rate:0.5 ~stochastic_rate:1.
      ~dataset:`Galaxy ~n:(round_ops / stochastic_every) rel
  in
  let rec weave i det stoch =
    match det, stoch with
    | [], _ -> []
    | _, (d : Datagen.Workload.def) :: st when i mod stochastic_every = stochastic_every - 1 ->
      Stochastic d.paql :: weave (i + 1) det st
    | Datagen.Workload.Op_query d :: rest, _ -> Query d.paql :: weave (i + 1) rest stoch
    | Datagen.Workload.Op_append { rows; aseed; _ } :: rest, _ ->
      Append
        (Relalg.Csv.to_string (Datagen.Workload.append_batch ~dataset:`Galaxy ~rows ~seed:aseed))
      :: weave (i + 1) rest stoch
  in
  weave 0 det stoch

type round = {
  ops : op list;
  setup : float;
  results : op result list;
  wall : float;
  rss : float;  (* the server process's peak *)
  stats : Servers.stats option;
  trace_s : float;  (* reading the trace after the stream *)
}

let play_round ~data ~wal ~ops ~trace =
  let t0 = Measure.now () in
  let srv = Servers.spawn [ "mixed"; "--data"; data; "--wal"; wal ] in
  let setup = Measure.now () -. t0 in
  Fun.protect
    ~finally:(fun () -> Servers.stop srv)
    (fun () ->
      let results, wall =
        play ~port:srv.port ops (fun c -> function
          | Query q | Stochastic q -> Service.Client.query c q
          | Append csv -> Service.Client.append c ~csv)
      in
      let stats, trace_s =
        Measure.time (fun () -> if trace then Some (Servers.stats srv.port) else None)
      in
      { ops; setup; results; wall; rss = Servers.peak_rss_mb srv; stats; trace_s })

(* The round's answers, checked over the table with every append of the
   round applied: a superset of what any answer saw, so membership and
   the LP-bound property hold whatever the interleaving. Returns the
   failed operations and the ratios of the deterministic answers. *)
let check_round rel r =
  let tbl = Checker.table rel in
  List.iter
    (function Append csv -> Checker.append tbl (Relalg.Csv.of_string csv) | _ -> ())
    r.ops;
  let check = checker tbl in
  let fail e (failed, ratios) =
    Printf.eprintf "perfbench: serve-mixed operation failed: %s\n%!" e;
    (failed + 1, ratios)
  in
  List.fold_left
    (fun ((failed, ratios) as acc) res ->
      match res.op with
      | Append _ -> (
        match res.reply with
        | P.Resp_ok _ -> acc
        | P.Resp_err (code, msg) -> fail (P.code_name code ^ ": " ^ msg) acc)
      | Query q | Stochastic q -> (
        match answer_of res.reply with
        | Error e -> fail e acc
        | Ok a -> (
          match check (q, a) with
          | Some x when is_query res.op -> (failed, (q, x) :: ratios)
          | _ -> acc)))
    (0, []) r.results

let run ~seed ~seconds ~trace =
  let dir = run_dir () in
  let rel = Datagen.Galaxy.generate ~seed:data_seed rows in
  let data = Filename.concat dir "base.seg" in
  Store.Segment.write data rel;
  let rounds = ref [] and measured = ref 0. in
  while !rounds = [] || !measured < seconds do
    let i = List.length !rounds in
    let ops = ops ~seed:((seed * 1_000) + i) rel in
    let wal = Filename.concat dir (Printf.sprintf "wal%d" i) in
    let r = play_round ~data ~wal ~ops ~trace in
    measured := !measured +. r.wall;
    rounds := r :: !rounds
  done;
  let rounds = List.rev !rounds in
  let failed, ratios =
    List.fold_left
      (fun (f, rs) r ->
        let f', rs' = check_round rel r in
        (f + f', rs' @ rs))
      (0, []) rounds
  in
  (* one ratio per distinct query text *)
  let distinct = Hashtbl.create 256 in
  List.iter (fun (q, x) -> if not (Hashtbl.mem distinct q) then Hashtbl.add distinct q x) ratios;
  let results = List.concat_map (fun r -> r.results) rounds in
  let lat_ms pred =
    List.filter_map
      (fun r -> if ok r && pred r.op then Some (r.latency *. 1e3) else None)
      results
  in
  let query_ms = lat_ms is_query in
  let wall = List.fold_left (fun a r -> a +. r.wall) 0. rounds in
  let e2e =
    [
      ("setup_s", Measure.median (List.map (fun r -> r.setup) rounds));
      ("peak_rss_mb", Measure.median (List.map (fun r -> r.rss) rounds));
      ("ops_per_s", float_of_int (List.length (List.filter ok results)) /. wall);
      ("query_p50_ms", Measure.median query_ms);
      ("query_p95_ms", Measure.percentile query_ms 0.95);
      ("query_geomean_ms", Measure.geomean query_ms);
      ("objective_ratio", Measure.geomean (Hashtbl.fold (fun _ x acc -> x :: acc) distinct []));
    ]
  in
  let layers =
    if not trace then []
    else
      let per_round f =
        Measure.mean
          (List.map (fun r -> match r.stats with Some s -> f s | None -> 0.) rounds)
      in
      let stage name = per_round (fun s -> Servers.stage_mean s name) in
      let rate hit miss =
        per_round (fun s ->
            let h = Servers.counter s hit in
            Measure.ratio h (h +. Servers.counter s miss))
      in
      [
        ("service.queue_wait_ms", stage "queue_wait");
        ("service.parse_ms", stage "parse");
        ("service.plan_ms", stage "plan");
        ("service.plan_hit_rate", rate "plan_hits" "plan_misses");
        ("service.partition_ms", stage "partition");
        ("service.partition_builds", per_round (fun s -> Servers.stage_count s "partition"));
        ("service.sketch_ms", stage "sketch");
        ("service.refine_ms", stage "refine");
        ("service.solve_ms", stage "solve");
        ("service.total_ms", stage "total");
        (* what a query spends outside the server's request handling:
           client latency minus the server's [total] stage *)
        ("service.wire_ms",
         Float.max 0.
           (Measure.mean (lat_ms (function Append _ -> false | _ -> true)) -. stage "total"));
        ("service.result_hit_rate", rate "result_hits" "result_misses");
        ("service.result_invalidated", per_round (fun s -> Servers.counter s "result_invalidated"));
        ("store.wal_records", per_round (fun s -> Servers.counter s "wal_records"));
        ("service.scenario_ms", stage "scenario");
        ("service.summary_ms", stage "summary");
        ("service.validate_ms", stage "validate");
        ("service.append_p50_ms", Measure.median (lat_ms (function Append _ -> true | _ -> false)));
        ("service.stochastic_p50_ms",
         Measure.median (lat_ms (function Stochastic _ -> true | _ -> false)));
        ("trace.overhead_pct",
         100. *. List.fold_left (fun a r -> a +. r.trace_s) 0. rounds /. wall);
      ]
  in
  let first = (List.hd rounds).ops in
  let count pred = List.length (List.filter pred first) in
  let sizes =
    [ ("galaxy_rows", rows); ("data_seed", data_seed); ("round_ops", List.length first);
      ("round_queries", count is_query);
      ("round_stochastic", count (function Stochastic _ -> true | _ -> false));
      ("round_appends", count (function Append _ -> true | _ -> false));
      ("rounds", List.length rounds); ("distinct_queries", Hashtbl.length distinct) ]
  in
  (e2e, layers, List.length results, failed, sizes)
