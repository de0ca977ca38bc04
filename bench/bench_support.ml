(* Shared infrastructure for the experiment harness: the OMQ(1,1,2)
   sequences of Section 6, dataset construction (Table 2), rewriting-size
   and evaluation measurements, and table printing. *)

open Obda_syntax
open Obda_ontology
open Obda_cq
open Obda_data
module Omq = Obda_rewriting.Omq
module Ndl = Obda_ndl.Ndl
module Eval = Obda_ndl.Eval
module Optimize = Obda_ndl.Optimize
module Budget = Obda_runtime.Budget
module Error = Obda_runtime.Error
module Obs = Obda_obs.Obs

(* ------------------------------------------------------------------ *)
(* The ontology of Example 11 and the three query sequences of Fig. 2 *)

let example11 () =
  Tbox.make
    [
      Tbox.Role_incl (Role.of_string "P", Role.of_string "S");
      Tbox.Role_incl (Role.of_string "P", Role.of_string "R-");
    ]

let sequence1 = "RRSRSRSRRSRRSSR"
let sequence2 = "SRRRRRSRSRRRRRR"
let sequence3 = "SRRSSRSRSRRSRRS"
let sequences = [ (1, sequence1); (2, sequence2); (3, sequence3) ]

(* the linear CQ over the first n letters, answer variables x0 and xn *)
let prefix_query letters n =
  let v i = Printf.sprintf "x%d" i in
  let atoms =
    List.init n (fun i ->
        Cq.Binary (Symbol.intern (String.make 1 letters.[i]), v i, v (i + 1)))
  in
  Cq.make ~answer:[ v 0; v n ] atoms

(* ------------------------------------------------------------------ *)
(* Algorithms of the experiment (the starred ones are our stand-ins for the
   systems of the paper; see DESIGN.md) *)

type algorithm =
  | Rapid_star
  | Clipper_star
  | Presto_star
  | Lin
  | Log
  | Tw
  | Tw_star

let algorithm_label = function
  | Rapid_star -> "Rapid*"
  | Clipper_star -> "Clipper*"
  | Presto_star -> "Presto*"
  | Lin -> "Lin"
  | Log -> "Log"
  | Tw -> "Tw"
  | Tw_star -> "Tw*"

let table1_algorithms = [ Rapid_star; Clipper_star; Presto_star; Lin; Log; Tw ]

let eval_algorithms =
  [ Rapid_star; Clipper_star; Presto_star; Lin; Log; Tw; Tw_star ]

exception Skipped of string

(* rewriting over arbitrary data instances, like the systems compared in the
   paper; [max_cqs] bounds the UCQ baselines (their 15-minute timeouts) and
   [budget] bounds one case so a runaway rewriting yields a table cell, not
   a dead harness *)
let rewrite ?budget ?(max_cqs = 20_000) alg omq =
  try
    match alg with
    | Clipper_star ->
      Obda_rewriting.Ucq_rewriter.rewrite ?budget ~max_cqs omq.Omq.tbox
        omq.Omq.cq
    | Rapid_star ->
      (* condensation is quadratic in the number of CQs: bail out like Rapid's
         timeouts in the paper *)
      let cqs =
        Obda_rewriting.Ucq_rewriter.rewrite_cqs ?budget ~max_cqs omq.Omq.tbox
          omq.Omq.cq
      in
      if List.length cqs > 1200 then raise (Skipped "too many CQs to condense")
      else
        Obda_rewriting.Ucq_rewriter.rewrite_condensed ?budget ~max_cqs
          omq.Omq.tbox omq.Omq.cq
    | Presto_star ->
      let complete_level =
        Obda_rewriting.Presto_like.rewrite ?budget ~max_subsets:max_cqs
          omq.Omq.tbox omq.Omq.cq
      in
      Obda_ndl.Star.complete_to_arbitrary omq.Omq.tbox complete_level
    | Lin -> Omq.rewrite ?budget Omq.Lin omq
    | Log -> Omq.rewrite ?budget Omq.Log omq
    | Tw -> Omq.rewrite ?budget Omq.Tw omq
    | Tw_star -> Optimize.inline_single_use (Omq.rewrite ?budget Omq.Tw omq)
  with
  | Error.Obda_error (Error.Budget_exhausted { resource = Size; _ }) ->
    (* the UCQ and Presto size caps: no case budget caps the size *)
    raise (Skipped "limit")
  | Error.Obda_error (Error.Budget_exhausted _) -> raise (Skipped "timeout")
  | Error.Obda_error (Error.Not_applicable _) -> raise (Skipped "n/a")

(* The size columns come from the telemetry collector rather than from
   re-measuring the returned program: every rewriter reports its final
   [ndl.clauses] gauge, so the table shows exactly what the pipeline saw. *)
let rewriting_size ?budget ?max_cqs alg omq =
  match Obs.collecting (fun () -> rewrite ?budget ?max_cqs alg omq) with
  | exception Skipped _ -> None
  | q, c -> (
    match Obs.Collector.gauge_int c "ndl.clauses" with
    | Some n -> Some n
    | None -> Some (Ndl.num_clauses q))

(* ------------------------------------------------------------------ *)
(* Datasets of Table 2 *)

let marker tbox r = Tbox.exists_name tbox (Role.of_string r)

(* the fixed generator seed, printed in every harness row so a timeout cell
   identifies an exactly reproducible instance *)
let default_seed = 42

let build_dataset ?(seed = default_seed) ~scale tbox (name, params) =
  let params = if scale = 1.0 then params else Generate.scale scale params in
  let abox =
    Generate.erdos_renyi ~seed ~edge_pred:(Symbol.intern "R")
      ~concepts:[ marker tbox "P"; marker tbox "P-" ]
      params
  in
  (name, params, abox)

let datasets ?seed ~scale tbox =
  List.map (build_dataset ?seed ~scale tbox) Generate.table2_params

(* ------------------------------------------------------------------ *)
(* Timed evaluation *)

type eval_outcome =
  | Ok_result of { time : float; answers : int; tuples : int }
  | Timed_out of float
  | Not_available of string

(* Tables 3–5 count every IDB relation in full, as RDFox without magic
   sets does: [Eval.materialise].  [answer] times the goal-directed
   [Eval.run] instead. *)
let evaluate ?(answer = false) ~timeout query abox =
  let budget = Budget.create ~timeout () in
  let t0 = Unix.gettimeofday () in
  (* timed without a telemetry collector, which would add a locked update
     per derived fact to the measured time; the counts are in the result *)
  match
    if answer then Eval.run ~budget query abox
    else Eval.materialise ~budget query abox
  with
  | r ->
    Ok_result
      {
        time = Unix.gettimeofday () -. t0;
        answers = List.length r.Eval.answers;
        tuples = r.Eval.generated_tuples;
      }
  | exception Error.Obda_error (Error.Budget_exhausted _) -> Timed_out timeout
  | exception Error.Obda_error e -> Not_available (Error.class_name e)

let evaluate_alg ~timeout ?max_cqs alg omq abox =
  match rewrite ~budget:(Budget.create ~timeout ()) ?max_cqs alg omq with
  | exception Skipped why -> Not_available why
  | query -> evaluate ~timeout query abox

(* ------------------------------------------------------------------ *)
(* Table printing *)

let print_row widths cells =
  let padded =
    List.map2
      (fun w c -> if String.length c >= w then c else String.make (w - String.length c) ' ' ^ c)
      widths cells
  in
  print_endline (String.concat "  " padded);
  (* flush per row: a crashed or killed case must not lose the table so far *)
  flush stdout

let print_header title =
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline title;
  print_endline (String.make 78 '=')

let cell_of_option = function Some n -> string_of_int n | None -> "-"

(* ------------------------------------------------------------------ *)
(* Experiment persistence: the harness appends one JSON line per run to
   BENCH_<experiment>.json — timestamp, duration, status and whatever
   metrics the experiment recorded — so successive runs accumulate a
   comparable history next to the printed tables. *)

module Json = Obda_obs.Json

let current_metrics : (string * Json.t) list ref = ref []
let reset_metrics () = current_metrics := []
let record_metric key v = current_metrics := (key, v) :: !current_metrics
let record_int key n = record_metric key (Json.Int n)
let record_float key x = record_metric key (Json.Float x)

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* provenance columns: which commit and machine produced a history row —
   without them two BENCH_*.json runs from different checkouts are not
   comparable *)
let git_rev =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
       let rev = try input_line ic with End_of_file -> "" in
       match (Unix.close_process_in ic, rev) with
       | Unix.WEXITED 0, rev when rev <> "" -> rev
       | _ -> "unknown"
     with _ -> "unknown")

let hostname = lazy (try Unix.gethostname () with _ -> "unknown")

let persist_experiment ~name ~duration ~status =
  let row =
    Json.Assoc
      (("ts", Json.String (iso8601 (Unix.time ())))
      :: ("experiment", Json.String name)
      :: ("git_rev", Json.String (Lazy.force git_rev))
      :: ("hostname", Json.String (Lazy.force hostname))
      :: ("nproc", Json.Int (Domain.recommended_domain_count ()))
      :: ("status", Json.String status)
      :: ("duration_s", Json.Float duration)
      :: List.rev !current_metrics)
  in
  let path = "BENCH_" ^ name ^ ".json" in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  output_string oc (Json.to_string row);
  output_char oc '\n';
  close_out oc

let cell_of_outcome field = function
  | Ok_result r -> (
    match field with
    | `Time -> Printf.sprintf "%.3f" r.time
    | `Answers -> string_of_int r.answers
    | `Tuples -> string_of_int r.tuples)
  | Timed_out _ -> ( match field with `Time -> "timeout" | _ -> "-")
  | Not_available _ -> "-"
