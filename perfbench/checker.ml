(* Independent package checker.

   Recomputes everything a package query promises from the package's
   own rows: membership in the table (with the REPEAT bound), the WHERE
   predicate, every global predicate (COUNT/SUM/AVG, subquery counts,
   arithmetic over them) and the objective. Aggregates come from
   [Relalg.Aggregate] over a relation built from the package rows; the
   query is read from the parsed AST. Nothing here goes through
   [Paql.Translate], [Paql.Linform] or [Pkg.Package.feasible], so a bug
   in the ILP translation cannot hide itself. *)

open Relalg

(* Relative slack for float comparisons: the ILP solvers work to 1e-7
   feasibility tolerances and served objectives are printed with %g. *)
let tol = 1e-5

(* Exact identity of a row: floats by bit pattern, so a row parsed back
   from a %.17g CSV matches the table row it came from. *)
let row_key t =
  let b = Buffer.create 64 in
  for i = 0 to Tuple.arity t - 1 do
    (match Tuple.get t i with
    | Value.Null -> Buffer.add_string b "N"
    | Value.Int n -> Buffer.add_string b ("I" ^ string_of_int n)
    | Value.Float f -> Buffer.add_string b ("F" ^ Int64.to_string (Int64.bits_of_float f))
    | Value.Str s -> Buffer.add_string b ("S" ^ String.escaped s)
    | Value.Bool v -> Buffer.add_string b (if v then "T" else "U"));
    Buffer.add_char b '|'
  done;
  Buffer.contents b

(* A table prepared for membership checks: row key -> copies in the
   table. Appends extend it in place. *)
type table = { rel : Relation.t ref; counts : (string, int) Hashtbl.t }

let add_rows tbl rel =
  Relation.iter
    (fun _ t ->
      let k = row_key t in
      Hashtbl.replace tbl.counts k
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl.counts k)))
    rel

let table rel =
  let tbl = { rel = ref rel; counts = Hashtbl.create (2 * Relation.cardinality rel) } in
  add_rows tbl rel;
  tbl

let append tbl extra =
  add_rows tbl extra;
  tbl.rel := Relation.of_rows (Relation.schema !(tbl.rel))
      (Relation.to_list !(tbl.rel) @ Relation.to_list extra)

let relation tbl = !(tbl.rel)

let agg_func : Paql.Ast.agg_kind -> Aggregate.func = function
  | Count_star -> Count_star
  | Count a -> Count a
  | Sum a -> Sum a
  | Avg a -> Avg a
  | Min a -> Min a
  | Max a -> Max a

(* Value of a global expression over the package relation [pkg]. *)
let rec eval_g pkg (e : Paql.Ast.gexpr) =
  match e with
  | Num f -> f
  | Agg (k, where) -> (
    let v = Aggregate.over ?where pkg (agg_func k) in
    match k with
    | Count_star | Count _ | Sum _ -> Aggregate.sum_or_zero v
    | Avg _ | Min _ | Max _ -> (
      match Value.to_float_opt v with Some f -> f | None -> nan))
  | Add (a, b) -> eval_g pkg a +. eval_g pkg b
  | Subtract (a, b) -> eval_g pkg a -. eval_g pkg b
  | Mult (a, b) -> eval_g pkg a *. eval_g pkg b
  | Divide (a, b) -> eval_g pkg a /. eval_g pkg b
  | Negate a -> -.eval_g pkg a
  | Expected a -> eval_g pkg a

let slack x = tol *. Float.max 1. (Float.abs x)

let holds (cmp : Paql.Ast.gcmp) a b =
  match cmp with
  | Le | Lt -> a <= b +. slack b
  | Ge | Gt -> a >= b -. slack b
  | Eq -> Float.abs (a -. b) <= slack b

let pp_cmp : Paql.Ast.gcmp -> string = function
  | Le -> "<=" | Lt -> "<" | Ge -> ">=" | Gt -> ">" | Eq -> "="

(* Attributes summed inside a probabilistic predicate: the noisy ones. *)
let rec noisy_attrs (e : Paql.Ast.gexpr) =
  match e with
  | Num _ -> []
  | Agg ((Sum a | Avg a | Count a | Min a | Max a), _) -> [ a ]
  | Agg (Count_star, _) -> []
  | Add (a, b) | Subtract (a, b) | Mult (a, b) | Divide (a, b) ->
    noisy_attrs a @ noisy_attrs b
  | Negate a | Expected a -> noisy_attrs a

(* Held-out scenarios for probabilistic predicates: drawn with a seed
   no server default uses, many enough that a true probability of [p]
   is measured to within a few per cent. *)
let holdout_seed = 0x5eed_c4ec
let holdout_scenarios = 400

(* The probability a package meets [a cmp b] on held-out scenarios,
   with the noise model the SummarySearch driver defaults to
   ([Datagen.Scenario.default_specs] over the full table). *)
let scenario_probability ~table pkg cmp a b =
  let attrs = List.sort_uniq compare (noisy_attrs a @ noisy_attrs b) in
  let specs = Datagen.Scenario.default_specs table attrs in
  let sc =
    Datagen.Scenario.generate_exn ~seed:holdout_seed
      ~scenarios:holdout_scenarios specs pkg
  in
  let ok = ref 0 in
  for s = 0 to holdout_scenarios - 1 do
    let r = Datagen.Scenario.realize sc s in
    if holds cmp (eval_g r a) (eval_g r b) then incr ok
  done;
  float_of_int !ok /. float_of_int holdout_scenarios

(* [check tbl q rows] checks the package [rows] (one tuple per copy)
   against query [q]; returns the recomputed objective ([None] without
   an objective clause) or the first violation found. [reported] is the
   objective the program claimed for the package, when it claimed one. *)
let check ?reported tbl (q : Paql.Ast.query) rows =
  let table = relation tbl in
  let schema = Relation.schema table in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let copies = Hashtbl.create 16 in
  List.iter
    (fun t ->
      let k = row_key t in
      Hashtbl.replace copies k
        (1 + Option.value ~default:0 (Hashtbl.find_opt copies k)))
    rows;
  let per_row_cap = match q.repeat with Some k -> k + 1 | None -> max_int in
  let membership =
    Hashtbl.fold
      (fun k m acc ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
          match Hashtbl.find_opt tbl.counts k with
          | None -> err "package row not in the table"
          | Some c when per_row_cap < max_int && m > c * per_row_cap ->
            err "row used %d times, REPEAT allows %d" m (c * per_row_cap)
          | Some _ -> Ok ()))
      copies (Ok ())
  in
  let where_ok () =
    match q.where with
    | None -> Ok ()
    | Some w ->
      if List.for_all (fun t -> Expr.eval_bool schema t w) rows then Ok ()
      else err "package row fails the WHERE predicate"
  in
  let pkg = Relation.of_rows schema rows in
  let rec preds = function
    | [] -> Ok ()
    | (p : Paql.Ast.gpred) :: rest -> (
      let r =
        match p with
        | Gcmp (cmp, a, b) ->
          let va = eval_g pkg a and vb = eval_g pkg b in
          if holds cmp va vb then Ok ()
          else err "global predicate %g %s %g fails" va (pp_cmp cmp) vb
        | Gbetween (e, lo, hi) ->
          let v = eval_g pkg e and l = eval_g pkg lo and h = eval_g pkg hi in
          if holds Ge v l && holds Le v h then Ok ()
          else err "global predicate %g BETWEEN %g AND %g fails" v l h
        | Gprob (cmp, a, b, p) ->
          let got = scenario_probability ~table pkg cmp a b in
          (* four binomial standard errors below p: a package whose true
             probability is p passes all but ~3e-5 of the time *)
          let n = float_of_int holdout_scenarios in
          let floor = p -. (4. *. sqrt (p *. (1. -. p) /. n)) in
          if got >= floor then Ok ()
          else err "WITH PROBABILITY %g holds on %.3f of held-out scenarios" p got
        | Gand _ -> Ok ()
      in
      match r with Error _ -> r | Ok () -> preds rest)
  in
  let objective () =
    match q.objective with
    | None -> Ok None
    | Some (Minimize e | Maximize e) -> (
      let v = eval_g pkg e in
      match reported with
      | Some r when Float.abs (r -. v) > slack v ->
        err "reported objective %g, recomputed %g" r v
      | _ -> Ok (Some v))
  in
  let ( let* ) = Result.bind in
  let* () = membership in
  let* () = where_ok () in
  let* () =
    preds (match q.such_that with None -> [] | Some g -> Paql.Ast.conjuncts g)
  in
  objective ()

(* Rows of a local package, one tuple per copy. *)
let package_rows p = List.of_seq (Pkg.Package.tuples p)

(* Rows of a served answer: the reply body's CSV. *)
let csv_rows csv =
  if String.trim csv = "" then [] else Relation.to_list (Csv.of_string csv)
