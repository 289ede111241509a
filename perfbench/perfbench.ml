(* perfbench: the package-query benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for S seconds of measured work, checks every
   answer, and prints as its last stdout line one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones.
   The line before it records provenance. See README.md. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("ops_per_s", "ops/s");
    ("query_p50_ms", "ms");
    ("query_p95_ms", "ms");
    ("query_geomean_ms", "ms");
    ("objective_ratio", "ratio");
  ]

let per_layer =
  let m = Paper.method_name in
  let each f = List.concat_map f Paper.methods in
  each (fun x -> [ "paper." ^ m x ^ "_s" ])
  @ each (fun x -> [ "paper." ^ m x ^ "_ratio" ])
  @ [ "paql.compile_ms"; "paql.to_problem_ms"; "relalg.base_candidates_ms";
      "pkg.partition_s"; "pkg.hierarchy_s"; "pkg.sketch_s"; "pkg.hybrid_s" ]
  @ each (fun x -> [ Printf.sprintf "pkg.%s.refine_s" (m x) ])
  @ [ "pkg.progressive.levels_s" ]
  @ each (fun x ->
        let n = m x in
        [ "ilp." ^ n ^ ".calls"; "ilp." ^ n ^ ".nodes"; "ilp." ^ n ^ ".kwords_per_node";
          "gc." ^ n ^ ".major_collections"; "lp." ^ n ^ ".pivots";
          "lp." ^ n ^ ".dual_pivots"; "lp." ^ n ^ ".refactorizations";
          "lp." ^ n ^ ".warm_hit_rate" ])
  @ [ "ilp.direct.us_per_node" ]
  @ [ "service.queue_wait_ms"; "service.parse_ms"; "service.plan_ms";
      "service.plan_hit_rate"; "service.partition_ms"; "service.partition_builds";
      "service.sketch_ms"; "service.refine_ms"; "service.solve_ms"; "service.total_ms";
      "service.wire_ms"; "service.result_hit_rate"; "service.result_invalidated";
      "store.wal_records"; "service.scenario_ms"; "service.summary_ms";
      "service.validate_ms"; "service.append_p50_ms"; "service.stochastic_p50_ms" ]
  @ [ "coord.partition_ms"; "coord.sketch_ms"; "coord.refine_ms"; "coord.total_ms";
      "shard.sketch_ms"; "shard.refine_ms"; "shard.ctx_ms"; "coord.rpc_overhead_ms";
      "coord.refine_rpcs_per_query"; "coord.retries" ]
  @ [ "trace.overhead_pct" ]

let layer_unit name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_ms" then "ms"
  else if ends "_s" then "s"
  else if ends "_pct" then "%"
  else if ends "_rate" || ends "_ratio" then "ratio"
  else if ends "kwords_per_node" then "kwords"
  else if ends "us_per_node" then "us"
  else "count"

let workloads = [ "paper-batch"; "serve-mixed"; "shard-scatter" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \  workloads: paper-batch serve-mixed shard-scatter";
  exit 2

let parse_args argv =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with Some n -> seed := n; go rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some s when s > 0. -> seconds := s; go rest
      | _ -> usage ())
    | "--trace" :: t :: rest -> (
      match t with "0" -> trace := false; go rest | "1" -> trace := true; go rest
      | _ -> usage ())
    | _ -> usage ()
  in
  go argv;
  match !workload with
  | Some w when List.mem w workloads -> (w, !seed, !seconds, !trace)
  | _ -> usage ()

let main argv =
  let workload, seed, seconds, trace = parse_args argv in
  let e2e, layers, attempted, failed, sizes =
    match workload with
    | "paper-batch" -> Paper.run ~seed ~seconds ~trace
    | "serve-mixed" -> Mixed.run ~seed ~seconds ~trace
    | _ -> Scatter.run ~seed ~seconds ~trace
  in
  let pick names got =
    List.map
      (fun (name, unit_) ->
        Measure.metric name unit_ (Option.value ~default:0. (List.assoc_opt name got)))
      names
  in
  let metrics =
    if trace then pick (List.map (fun n -> (n, layer_unit n)) per_layer) layers
    else pick end_to_end e2e
  in
  List.iter
    (fun (m : Measure.metric) ->
      Printf.eprintf "perfbench: %-34s %14.4f %s\n" m.name m.value m.unit_;
      if (not trace) && not (Float.is_finite m.value && m.value > 0.) then
        Measure.problem "end-to-end metric %s is %g" m.name m.value)
    metrics;
  print_endline (Measure.provenance ~workload ~seed ~trace sizes);
  print_endline
    (Measure.result_line ~correct:(!Measure.problems = []) ~attempted ~failed metrics)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "serve" :: rest -> Servers.serve rest
  | argv -> main argv
