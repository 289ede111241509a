(* The paper's batch: Galaxy Q1-Q7 and TPC-H Q1-Q7, each answered by
   Direct, SketchRefine and Progressive — the cells of Figures 5/6.

   The inputs are fixed and take nothing from the workload seed: the
   paper measures fixed datasets, and on these thin-window queries
   branch-and-bound effort swings by more than 10x between generator
   seeds (SketchRefine on Galaxy Q2 at 3,000 rows: 0.5s to 16s over
   data seeds 1-8), which would drown any change in the methods. Every
   round runs the queries in the paper's order: a shuffled order moves
   the timings through the garbage collector's state. *)

type method_ = Direct | Sketchrefine | Progressive

let method_name = function
  | Direct -> "direct"
  | Sketchrefine -> "sketchrefine"
  | Progressive -> "progressive"

let methods = [ Direct; Sketchrefine; Progressive ]

let galaxy_rows = 4_500
let tpch_rows = 5_000
let data_seed = 1

(* Direct's node budget stands in for the paper's CPLEX cap: it keeps
   Direct's hard cells (Galaxy Q2/Q7, TPC-H Q1) to about a second or
   two each. Galaxy Q2 finds no incumbent within it. *)
let direct_limits =
  { Ilp.Branch_bound.default_limits with max_nodes = 300; max_seconds = 3600. }

(* A budget no SketchRefine or Progressive ILP of this batch reaches
   (the largest needs ~92k nodes), and wall-clock caps far beyond a
   run, so no limit decides an answer. *)
let unreached =
  { Ilp.Branch_bound.default_limits with max_nodes = 50_000_000; max_seconds = 3600. }

let sr_options =
  { Pkg.Sketch_refine.default_options with limits = unreached; max_seconds = 3600. }

let pr_options =
  { Pkg.Progressive.default_options with limits = unreached; max_seconds = 3600. }

type query = {
  label : string;  (* "galaxy/Q1" *)
  ast : Paql.Ast.query;
  rel : Relalg.Relation.t;
  spec : Paql.Translate.spec;
  part : Pkg.Partition.t;
  hier : Pkg.Hierarchy.t;
}

type setup_times = { compile_s : float; partition_s : float; hierarchy_s : float }

let generate () =
  let galaxy = Datagen.Galaxy.generate ~seed:data_seed galaxy_rows in
  let tpch = Datagen.Tpch.generate ~seed:data_seed tpch_rows in
  let per dataset name rel defs =
    List.map
      (fun (d : Datagen.Workload.def) ->
        (name, d, Datagen.Workload.query_relation ~dataset rel d))
      defs
  in
  per `Galaxy "galaxy" galaxy (Datagen.Workload.galaxy_queries galaxy)
  @ per `Tpch "tpch" tpch (Datagen.Workload.tpch_queries tpch)

(* The offline phase the paper times separately: compile every query,
   partition each query relation (quad tree on the dataset's workload
   attributes, tau = 10%) and build its DLV hierarchy. Galaxy queries
   share one relation, so they share one partitioning and hierarchy. *)
let setup inputs =
  let attrs_of name =
    Datagen.Workload.workload_attrs
      (List.filter_map (fun (n, d, _) -> if n = name then Some d else None) inputs)
  in
  let t = ref { compile_s = 0.; partition_s = 0.; hierarchy_s = 0. } in
  let built = ref [] in
  let structures rel attrs =
    match List.assq_opt rel !built with
    | Some ph -> ph
    | None ->
      let tau = max 1 (Relalg.Relation.cardinality rel / 10) in
      let part, tp = Measure.time (fun () -> Pkg.Partition.create ~tau ~attrs rel) in
      let hier, th = Measure.time (fun () -> Pkg.Hierarchy.build ~attrs rel) in
      t := { !t with partition_s = !t.partition_s +. tp; hierarchy_s = !t.hierarchy_s +. th };
      built := (rel, (part, hier)) :: !built;
      (part, hier)
  in
  let queries =
    List.map
      (fun (name, (d : Datagen.Workload.def), rel) ->
        let (ast, spec), tc =
          Measure.time (fun () ->
              let ast = Paql.Parser.parse_exn d.paql in
              (ast, Paql.Translate.compile_exn (Relalg.Relation.schema rel) ast))
        in
        t := { !t with compile_s = !t.compile_s +. tc };
        let part, hier = structures rel (attrs_of name) in
        { label = name ^ "/" ^ d.name; ast; rel; spec; part; hier })
      inputs
  in
  (queries, !t)

let run_method m q =
  match m with
  | Direct -> Pkg.Direct.run ~limits:direct_limits q.spec q.rel
  | Sketchrefine -> Pkg.Sketch_refine.run ~options:sr_options q.spec q.rel q.part
  | Progressive -> fst (Pkg.Progressive.run ~options:pr_options q.spec q.rel q.hier)

(* ---- tracing: per-round layer counters ------------------------------ *)

type trace = {
  stages : (string, float) Hashtbl.t;  (* Eval stage -> seconds *)
  mutable run_s : float;  (* inside the method's [run] *)
  mutable calls : int;
  mutable nodes : int;
  mutable minor_words : float;
  mutable major : int;
  mutable pivots : int;
  mutable dual_pivots : int;
  mutable refactorizations : int;
  mutable warm_attempts : int;
  mutable warm_hits : int;
}

let fresh_trace () =
  { stages = Hashtbl.create 8; run_s = 0.; calls = 0; nodes = 0; minor_words = 0.; major = 0;
    pivots = 0; dual_pivots = 0; refactorizations = 0; warm_attempts = 0;
    warm_hits = 0 }

let traced tr f =
  let g0 = Gc.quick_stat () and c0 = Lp.Simplex.counters () in
  let (r : Pkg.Eval.report), dt = Measure.time f in
  let g1 = Gc.quick_stat () and c1 = Lp.Simplex.counters () in
  tr.run_s <- tr.run_s +. dt;
  tr.calls <- tr.calls + r.counters.ilp_calls;
  tr.nodes <- tr.nodes + r.counters.nodes;
  tr.minor_words <- tr.minor_words +. (g1.minor_words -. g0.minor_words);
  tr.major <- tr.major + (g1.major_collections - g0.major_collections);
  tr.pivots <- tr.pivots + (c1.pivots - c0.pivots);
  tr.dual_pivots <- tr.dual_pivots + (c1.dual_pivots - c0.dual_pivots);
  tr.refactorizations <- tr.refactorizations + (c1.refactorizations - c0.refactorizations);
  tr.warm_attempts <- tr.warm_attempts + (c1.warm_attempts - c0.warm_attempts);
  tr.warm_hits <- tr.warm_hits + (c1.warm_hits - c0.warm_hits);
  r

let with_observer tr f =
  Pkg.Eval.set_observer
    (Some
       (fun stage dt ->
         let k = Pkg.Eval.stage_name stage in
         Hashtbl.replace tr.stages k
           (dt +. Option.value ~default:0. (Hashtbl.find_opt tr.stages k))));
  Fun.protect ~finally:(fun () -> Pkg.Eval.set_observer None) f

(* ---- the workload ---------------------------------------------------- *)

(* [latency] is the time of one answer; [single] that of the first
   answer of the operation's sample (see [min_sample_s]). *)
type op = { m : method_; q : int; latency : float; single : float; report : Pkg.Eval.report }

(* An answer faster than this is timed over back-to-back repeats that
   together take at least this long, as timeit's autorange does, so the
   garbage the previous, heavier answer left behind and the clock's
   jitter do not decide its latency. The repeats are one operation. *)
let min_sample_s = 0.02

let has_package (r : Pkg.Eval.report) =
  match r.status, r.package with
  | (Pkg.Eval.Optimal | Pkg.Eval.Feasible _), Some _ -> true
  | _ -> false

(* Check one answer with the independent checker and against its LP
   bound; the recomputed objective on success. *)
let check_answer ~who q tbl bound (r : Pkg.Eval.report) =
  match r.package with
  | None -> None
  | Some p -> (
    match Checker.check ?reported:r.objective tbl q.ast (Checker.package_rows p) with
    | Error e ->
      Measure.problem "%s %s: %s" who q.label e;
      None
    | Ok None -> None
    | Ok (Some obj) ->
      let maximize = Bound.maximizes q.ast in
      Option.iter
        (fun b ->
          if not (Bound.respects ~maximize ~bound:b obj) then
            Measure.problem "%s %s: objective %g beats the LP bound %g" who q.label obj b)
        bound;
      Some obj)

let pp_status (r : Pkg.Eval.report) = Format.asprintf "%a" Pkg.Eval.pp_status r.status

let same_answer (a : Pkg.Eval.report) (b : Pkg.Eval.report) =
  let entries (r : Pkg.Eval.report) = Option.map Pkg.Package.entries r.package in
  entries a = entries b && pp_status a = pp_status b

let midx = function Direct -> 0 | Sketchrefine -> 1 | Progressive -> 2

let run ~seed:_ ~seconds ~trace =
  (* set-up, nine times on fresh copies of the data; the median is the
     figure, the last copy is used *)
  let last = ref [] in
  let setups =
    List.init 9 (fun _ ->
        last := [];
        let inputs = generate () in
        let (queries, times), wall = Measure.time (fun () -> setup inputs) in
        last := queries;
        (times, wall))
  in
  let queries = !last in
  let setup_s = Measure.median (List.map snd setups) in
  let setup_times =
    let med f = Measure.median (List.map (fun (t, _) -> f t) setups) in
    { compile_s = med (fun t -> t.compile_s); partition_s = med (fun t -> t.partition_s);
      hierarchy_s = med (fun t -> t.hierarchy_s) }
  in
  let qs = Array.of_list queries in
  let nq = Array.length qs in
  (* reference tables and bounds, outside every timed window *)
  let tbls =
    let made = ref [] in
    Array.map
      (fun q ->
        match List.assq_opt q.rel !made with
        | Some t -> t
        | None ->
          let t = Checker.table q.rel in
          made := (q.rel, t) :: !made;
          t)
      qs
  in
  let btime = Bound.timing () in
  let bounds = Array.map (fun q -> Bound.lp ~timing:btime q.spec q.rel) qs in
  (* the timed rounds: every round answers each query with Direct, then
     SketchRefine, then Progressive. Traced runs alternate traced and
     untraced rounds so the tracing cost can be read off; traced rounds
     answer each operation once, so their counters are per answer. *)
  let ops = ref [] and rounds = ref [] (* (answering time, answered) *) in
  let blocks = ref [] (* (method, answering time of its 14 queries) *) in
  let traces = ref [] (* (method, trace) *) in
  let traced_times = ref [] and untraced_times = ref [] (* first answers only *) in
  let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs in
  let start = Measure.now () in
  let min_rounds = if trace then 2 else 1 in
  while List.length !rounds < min_rounds || Measure.now () -. start < seconds do
    let traced_round = trace && List.length !rounds mod 2 = 0 in
    let block m =
      let tr = fresh_trace () in
      let operation i q =
        let report, single =
          Measure.time (fun () ->
              if traced_round then traced tr (fun () -> run_method m q) else run_method m q)
        in
        let n = ref 1 and total = ref single in
        while (not traced_round) && !total < min_sample_s do
          let again, dt = Measure.time (fun () -> run_method m q) in
          if not (same_answer report again) then
            Measure.problem "%s %s: a repeated answer differs" (method_name m) q.label;
          incr n;
          total := !total +. dt
        done;
        { m; q = i; latency = !total /. float_of_int !n; single; report }
      in
      let body () = List.mapi operation queries in
      let mine = if traced_round then with_observer tr body else body () in
      blocks := (m, sum (fun op -> op.latency) mine) :: !blocks;
      if traced_round then traces := (m, tr) :: !traces;
      mine
    in
    let mine = List.concat_map block methods in
    ops := !ops @ mine;
    rounds :=
      (sum (fun op -> op.latency) mine, List.length (List.filter (fun op -> has_package op.report) mine))
      :: !rounds;
    let firsts = sum (fun op -> op.single) mine in
    if traced_round then traced_times := firsts :: !traced_times
    else untraced_times := firsts :: !untraced_times
  done;
  let ops = !ops in
  (* outputs: checked answers, identical across rounds *)
  let first = Array.make_matrix 3 nq None and objs = Array.make_matrix 3 nq None in
  List.iter
    (fun op ->
      let q = qs.(op.q) and k = midx op.m in
      match first.(k).(op.q) with
      | None ->
        first.(k).(op.q) <- Some op.report;
        objs.(k).(op.q) <-
          check_answer ~who:(method_name op.m) q tbls.(op.q) bounds.(op.q) op.report
      | Some r0 ->
        if not (same_answer r0 op.report) then
          Measure.problem "%s %s: answer differs between rounds" (method_name op.m) q.label)
    ops;
  let failed = List.length (List.filter (fun op -> not (has_package op.report)) ops) in
  (* property: a proven Direct optimum is no worse than the approximate
     methods' answers to the same query; their distance to it is the
     paper's approximation ratio *)
  let vs_direct = Array.make 3 [] in
  Array.iteri
    (fun i q ->
      match first.(0).(i), objs.(0).(i) with
      | Some { Pkg.Eval.status = Pkg.Eval.Optimal; _ }, Some d ->
        List.iter
          (fun other ->
            let k = midx other in
            match objs.(k).(i) with
            | None -> Measure.problem "%s %s: no answer" (method_name other) q.label
            | Some o ->
              let maximize = Bound.maximizes q.ast in
              if not (Bound.respects ~maximize ~bound:d o) then
                Measure.problem "%s %s: objective %g beats Direct's optimum %g"
                  (method_name other) q.label o d;
              Option.iter
                (fun x -> vs_direct.(k) <- x :: vs_direct.(k))
                (Bound.ratio ~maximize ~bound:d o))
          [ Sketchrefine; Progressive ]
      | _ -> ())
    qs;
  let ratio_of k i =
    match bounds.(i), objs.(k).(i) with
    | Some bound, Some obj -> Bound.ratio ~maximize:(Bound.maximizes qs.(i).ast) ~bound obj
    | _ -> None
  in
  (* each (method, query) latency is its median over the rounds, so one
     round's hiccup does not move the percentiles; the percentiles are
     Harrell-Davis estimates over the 41 answered pairs, which are too
     few and too unlike for a nearest rank to hold still *)
  let latency m i =
    let mine = List.filter (fun op -> op.m = m && op.q = i && has_package op.report) ops in
    if mine = [] then None else Some (1e3 *. Measure.median (List.map (fun op -> op.latency) mine))
  in
  List.iter
    (fun m ->
      let k = midx m in
      Array.iteri
        (fun i q ->
          let show fmt = function Some x -> Printf.sprintf fmt x | None -> "-" in
          Printf.eprintf "perfbench: %-12s %-13s %9sms  obj %-12s bound %-12s ratio %-6s %s\n"
            q.label (method_name m) (show "%.1f" (latency m i)) (show "%.6g" objs.(k).(i))
            (show "%.6g" bounds.(i)) (show "%.3f" (ratio_of k i))
            (match first.(k).(i) with Some r -> pp_status r | None -> "-"))
        qs;
      if vs_direct.(k) <> [] then
        Printf.eprintf "perfbench: %s against Direct's proven optima: geomean %.4f over %d queries\n"
          (method_name m) (Measure.geomean vs_direct.(k)) (List.length vs_direct.(k)))
    methods;
  let all_ratios m = List.filter_map (ratio_of (midx m)) (List.init nq Fun.id) in
  let lat_ms =
    List.concat_map (fun m -> List.filter_map (latency m) (List.init nq Fun.id)) methods
  in
  let e2e =
    [
      ("setup_s", setup_s);
      ("peak_rss_mb", Measure.peak_rss_mb ());
      (* every round is the same work: the median round's rate *)
      ("ops_per_s",
       Measure.median (List.map (fun (wall, ok) -> float_of_int ok /. wall) !rounds));
      ("query_p50_ms", Measure.harrell_davis lat_ms 0.5);
      ("query_p95_ms", Measure.harrell_davis lat_ms 0.95);
      ("query_geomean_ms", Measure.geomean lat_ms);
      ("objective_ratio", Measure.geomean (List.concat_map all_ratios methods));
    ]
  in
  let layers =
    let fi = float_of_int in
    let per_round m f =
      Measure.mean (List.filter_map (fun (m', tr) -> if m' = m then Some (f tr) else None) !traces)
    in
    let stage k tr = Option.value ~default:0. (Hashtbl.find_opt tr.stages k) in
    let per_method m =
      let name = method_name m in
      (* Direct's one ILP is its whole run; it reports no stage of its own *)
      let solve_time tr = match m with Direct -> tr.run_s | _ -> stage "refine" tr in
      [
        (Printf.sprintf "paper.%s_s" name,
         Measure.median (List.filter_map (fun (m', w) -> if m' = m then Some w else None) !blocks));
        (Printf.sprintf "paper.%s_ratio" name, Measure.geomean (all_ratios m));
        (Printf.sprintf "pkg.%s.refine_s" name, per_round m solve_time);
        (Printf.sprintf "ilp.%s.calls" name, per_round m (fun tr -> fi tr.calls));
        (Printf.sprintf "ilp.%s.nodes" name, per_round m (fun tr -> fi tr.nodes));
        (Printf.sprintf "ilp.%s.kwords_per_node" name,
         per_round m (fun tr -> Measure.ratio (tr.minor_words /. 1e3) (fi tr.nodes)));
        (Printf.sprintf "gc.%s.major_collections" name, per_round m (fun tr -> fi tr.major));
        (Printf.sprintf "lp.%s.pivots" name, per_round m (fun tr -> fi tr.pivots));
        (Printf.sprintf "lp.%s.dual_pivots" name, per_round m (fun tr -> fi tr.dual_pivots));
        (Printf.sprintf "lp.%s.refactorizations" name,
         per_round m (fun tr -> fi tr.refactorizations));
        (Printf.sprintf "lp.%s.warm_hit_rate" name,
         per_round m (fun tr -> Measure.ratio (fi tr.warm_hits) (fi tr.warm_attempts)));
      ]
    in
    [
      ("paql.compile_ms", 1e3 *. setup_times.compile_s /. fi nq);
      ("paql.to_problem_ms", 1e3 *. btime.to_problem_s /. fi (max 1 btime.calls));
      ("relalg.base_candidates_ms", 1e3 *. btime.base_candidates_s /. fi (max 1 btime.calls));
      ("pkg.partition_s", setup_times.partition_s);
      ("pkg.hierarchy_s", setup_times.hierarchy_s);
      ("pkg.sketch_s", per_round Sketchrefine (stage "sketch"));
      ("pkg.hybrid_s", per_round Sketchrefine (stage "hybrid"));
      ("pkg.progressive.levels_s", per_round Progressive (stage "progressive"));
      ("ilp.direct.us_per_node",
       per_round Direct (fun tr -> Measure.ratio (1e6 *. tr.run_s) (fi tr.nodes)));
      ("trace.overhead_pct",
       match !traced_times, !untraced_times with
       | _ :: _, _ :: _ ->
         100. *. ((Measure.mean !traced_times /. Measure.mean !untraced_times) -. 1.)
       | _ -> 0.);
    ]
    @ List.concat_map per_method methods
  in
  let sizes =
    [ ("galaxy_rows", galaxy_rows); ("tpch_rows", tpch_rows); ("data_seed", data_seed);
      ("queries", nq); ("rounds", List.length !rounds); ("operations", List.length ops) ]
  in
  (e2e, layers, List.length ops, failed, sizes)
