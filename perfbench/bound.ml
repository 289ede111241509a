(* The reference every answer is measured against: the optimum of the LP
   relaxation of the query's full ILP (all candidate rows, no
   partitioning). No package can beat it, and an answer's distance to
   it is the approximation ratio the paper reports. *)

type timing = {
  mutable base_candidates_s : float;  (* Translate.base_candidates *)
  mutable to_problem_s : float;  (* Translate.to_problem *)
  mutable calls : int;
}

let timing () = { base_candidates_s = 0.; to_problem_s = 0.; calls = 0 }

(* [lp spec rel] — the relaxation optimum including the objective's
   constant term; [None] when the relaxation is infeasible or
   unbounded, or the query has no objective. *)
let lp ?timing spec rel =
  match spec.Paql.Translate.objective with
  | None -> None
  | Some (_, _, constant) -> (
    let candidates, t_base =
      Measure.time (fun () -> Paql.Translate.base_candidates spec rel)
    in
    let problem, t_problem =
      Measure.time (fun () -> Paql.Translate.to_problem spec rel ~candidates)
    in
    Option.iter
      (fun t ->
        t.base_candidates_s <- t.base_candidates_s +. t_base;
        t.to_problem_s <- t.to_problem_s +. t_problem;
        t.calls <- t.calls + 1)
      timing;
    match Lp.Simplex.solve problem with
    | Lp.Simplex.Optimal s -> Some (s.Lp.Simplex.obj +. constant)
    | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded | Lp.Simplex.Iter_limit ->
      None)

let maximizes (q : Paql.Ast.query) =
  match q.objective with Some (Maximize _) -> true | _ -> false

(* No answer may beat the relaxation. *)
let respects ~maximize ~bound obj =
  let slack = Checker.tol *. Float.max 1. (Float.abs bound) in
  if maximize then obj <= bound +. slack else obj >= bound -. slack

(* The oriented ratio (>= 1): how far the answer trails the bound.
   Defined when both are positive, as for every query in these
   workloads. *)
let ratio ~maximize ~bound obj =
  if bound > 0. && obj > 0. then
    Some (Float.max 1. (if maximize then bound /. obj else obj /. bound))
  else None
