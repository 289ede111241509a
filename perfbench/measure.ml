(* Timing, summary statistics, resource readings and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [q] in [0, 1]; [nan] on no samples. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Harrell-Davis estimate of quantile [q] in (0, 1): the mean of all
   samples, the i-th smallest weighted by the mass a
   Beta((n+1)q, (n+1)(1-q)) distribution puts on [(i-1)/n, i/n]
   (integrated by the midpoint rule). Over a few dozen unlike samples it
   moves smoothly where the nearest rank jumps from one to the next. *)
let harrell_davis xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 1 then percentile xs q
  else
    let fn = float_of_int n and steps = 64 in
    let alpha = (fn +. 1.) *. q and beta = (fn +. 1.) *. (1. -. q) in
    let log_pdf =
      Array.init (n * steps) (fun j ->
          let x = (float_of_int j +. 0.5) /. float_of_int (n * steps) in
          ((alpha -. 1.) *. log x) +. ((beta -. 1.) *. log (1. -. x)))
    in
    let top = Array.fold_left Float.max neg_infinity log_pdf in
    let w = Array.make n 0. in
    Array.iteri (fun j l -> w.(j / steps) <- w.(j / steps) +. exp (l -. top)) log_pdf;
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.iteri (fun i wi -> acc := !acc +. (wi *. a.(i))) w;
    !acc /. total

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (mean (List.map log xs))

(* 0 for an empty denominator: a per-layer ratio of a layer the
   workload never touched. *)
let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set of a process, in MB, from /proc. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0.
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6))
                " %f kB" (fun kb -> kb /. 1024.)
            else scan ()
        in
        scan ())

(* ---- the result line ------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_string s = Printf.sprintf "%S" s

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_number m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

(* ---- provenance ----------------------------------------------------- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* CPUs this process may use. *)
let nproc () = Domain.recommended_domain_count ()

(* The commit the checkout was built from: read from .git when the
   checkout is a work tree, "unknown" otherwise (exported trees carry no
   history). *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
    let head = String.trim head in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" r) with
      | Some rev -> String.trim rev
      | None -> (
        match read_file ".git/packed-refs" with
        | None -> "unknown"
        | Some packed ->
          List.fold_left
            (fun acc l ->
              match String.split_on_char ' ' l with
              | [ rev; name ] when name = r -> String.trim rev
              | _ -> acc)
            "unknown"
            (String.split_on_char '\n' packed))
    else head)

let provenance ~workload ~seed ~trace sizes =
  Printf.sprintf
    "{\"provenance\": {\"workload\": %S, \"seed\": %d, \"trace\": %b, \
     \"nproc\": %d, \"ocaml\": %S, \"git_rev\": %S, \"inputs\": {%s}}}"
    workload seed trace (nproc ()) Sys.ocaml_version (git_rev ())
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) sizes))

(* ---- correctness findings ------------------------------------------- *)

(* Every failed output check of the run; the run is correct when empty. *)
let problems : string list ref = ref []

let problem fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: CHECK FAILED: " ^ s);
      problems := s :: !problems)
    fmt
