(* Property-based tests over random ontologies and random tree-shaped CQs:
   every rewriting agrees with the chase; the completion transformations
   commute with ABox completion; the optimiser preserves semantics. *)

open Obda_syntax
open Obda_ontology
open Obda_cq
open Obda_data
module Omq = Obda_rewriting.Omq
module Ndl = Obda_ndl.Ndl
module Eval = Obda_ndl.Eval
module Optimize = Obda_ndl.Optimize
module Skinny = Obda_ndl.Skinny
open Helpers

(* ------------------------------------------------------------------ *)
(* Generators *)

let concept_pool = [ "A"; "B"; "C" ]
let role_pool = [ "P"; "Q"; "R"; "S" ]

(* a random ontology over the small signature; roughly half come out with
   finite depth *)
let random_tbox rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let random_role () =
    let r = Role.of_string (pick role_pool) in
    if Random.State.bool rng then Role.inv r else r
  in
  let random_basic () =
    if Random.State.bool rng then Concept.Name (sym (pick concept_pool))
    else Concept.Exists (random_role ())
  in
  let n_axioms = 2 + Random.State.int rng 5 in
  let axioms =
    List.init n_axioms (fun _ ->
        match Random.State.int rng 3 with
        | 0 -> Tbox.Concept_incl (random_basic (), random_basic ())
        | 1 -> Tbox.Role_incl (random_role (), random_role ())
        | _ ->
          Tbox.Concept_incl
            (Concept.Name (sym (pick concept_pool)), random_basic ()))
  in
  Tbox.make axioms

(* a random tree-shaped CQ with n+1 variables *)
let random_tree_cq rng n =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let v i = Printf.sprintf "t%d" i in
  let binary =
    List.init n (fun i ->
        let parent = Random.State.int rng (i + 1) in
        let p = sym (pick role_pool) in
        if Random.State.bool rng then Cq.Binary (p, v parent, v (i + 1))
        else Cq.Binary (p, v (i + 1), v parent))
  in
  let unary =
    List.init
      (Random.State.int rng 3)
      (fun _ -> Cq.Unary (sym (pick concept_pool), v (Random.State.int rng (n + 1))))
  in
  let answer =
    List.filter (fun _ -> Random.State.int rng 3 = 0) (List.init (n + 1) v)
  in
  Cq.make ~answer (binary @ unary)

let random_instance rng tbox =
  let consts = 4 + Random.State.int rng 3 in
  let markers =
    List.filter_map (fun r -> Tbox.exists_name_opt tbox r) (Tbox.roles tbox)
    |> List.map Symbol.name
  in
  random_abox
    ~seed:(Random.State.int rng 1_000_000)
    ~consts
    ~unary:(concept_pool @ markers)
    ~binary:role_pool ~unary_atoms:(3 + Random.State.int rng 4)
    ~binary_atoms:(6 + Random.State.int rng 8)

(* ------------------------------------------------------------------ *)
(* 1. agreement of every applicable algorithm with the chase, on random
      ontologies and random tree CQs, sequentially and through a 4-worker
      pool *)

let agreement_random_omqs alg =
  QCheck.Test.make ~count:40
    ~name:
      (Printf.sprintf "random OMQs: %s agrees with chase"
         (Omq.algorithm_name alg))
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, qsize) ->
      let rng = Random.State.make [| seed; 77 |] in
      let tbox = random_tbox rng in
      let q = random_tree_cq rng qsize in
      let omq = Omq.make tbox q in
      if not (Omq.applicable alg omq) then true
      else begin
        let abox = random_instance rng tbox in
        let expected = certain_answers omq abox in
        let got = answers_via alg omq abox in
        let got4 =
          Obda_runtime.Pool.with_pool ~jobs:4 (fun pool ->
              show_tuples (Omq.answer ~pool ~algorithm:alg omq abox))
        in
        let report what n =
          QCheck.Test.fail_reportf "tbox=%s q=%s: %d vs %d answers (%s)"
            (String.concat "; "
               (List.map
                  (Format.asprintf "%a" Tbox.pp_axiom)
                  (Tbox.axioms tbox)))
            (Format.asprintf "%a" Cq.pp q)
            (List.length expected) n what
        in
        if expected <> got then report "sequential" (List.length got)
        else if expected <> got4 then report "4 workers" (List.length got4)
        else true
      end)

(* ------------------------------------------------------------------ *)
(* 2. the ∗-transformation: rewriting over complete instances evaluated on
      the completed ABox = rewriting over arbitrary instances on the raw
      ABox *)

let star_commutes alg =
  QCheck.Test.make ~count:25
    ~name:
      (Printf.sprintf "complete-on-completed = arbitrary-on-raw (%s)"
         (Omq.algorithm_name alg))
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, qsize) ->
      let rng = Random.State.make [| seed; 78 |] in
      let tbox = random_tbox rng in
      let q = random_tree_cq rng qsize in
      let omq = Omq.make tbox q in
      if not (Omq.applicable alg omq) then true
      else begin
        let abox = random_instance rng tbox in
        let completed = Abox.complete tbox abox in
        let over_complete = Omq.rewrite ~over:`Complete alg omq in
        let over_arbitrary = Omq.rewrite ~over:`Arbitrary alg omq in
        Eval.answers over_complete completed = Eval.answers over_arbitrary abox
      end)

(* ------------------------------------------------------------------ *)
(* 3. the optimiser and the skinny transformation preserve semantics of the
      produced rewritings *)

let transform_preserves name transform =
  QCheck.Test.make ~count:25 ~name
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, qsize) ->
      let rng = Random.State.make [| seed; 79 |] in
      let tbox = random_tbox rng in
      let q = random_tree_cq rng qsize in
      let omq = Omq.make tbox q in
      if not (Omq.applicable Omq.Tw omq) then true
      else begin
        let abox = random_instance rng tbox in
        let base = Omq.rewrite ~over:`Arbitrary Omq.Tw omq in
        Eval.answers base abox = Eval.answers (transform base) abox
      end)

let inline_preserves =
  transform_preserves "Tw* inlining preserves answers" (fun q ->
      Optimize.inline_single_use q)

let skinny_preserves =
  transform_preserves "skinny transformation preserves answers" (fun q ->
      Skinny.transform q)

let skinny_is_skinny =
  QCheck.Test.make ~count:25 ~name:"skinny transformation yields skinny NDL"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, qsize) ->
      let rng = Random.State.make [| seed; 80 |] in
      let tbox = random_tbox rng in
      let q = random_tree_cq rng qsize in
      let omq = Omq.make tbox q in
      if not (Omq.applicable Omq.Log omq) then true
      else
        let r = Omq.rewrite ~over:`Complete Omq.Log omq in
        Ndl.is_skinny (Skinny.transform r))

(* ------------------------------------------------------------------ *)
(* 4. pure CQ evaluation (empty ontology): the NDL engine vs the chase *)

let plain_cq_eval =
  QCheck.Test.make ~count:40 ~name:"NDL engine = chase on plain CQs"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 5))
    (fun (seed, qsize) ->
      let rng = Random.State.make [| seed; 81 |] in
      let tbox = Tbox.make [] in
      let q = random_tree_cq rng qsize in
      let omq = Omq.make tbox q in
      let abox = random_instance rng tbox in
      certain_answers omq abox = answers_via Omq.Tw omq abox)

(* ------------------------------------------------------------------ *)
(* 5. monotonicity of certain answers in the data *)

let monotone_in_data =
  QCheck.Test.make ~count:25 ~name:"certain answers are monotone in the data"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 3))
    (fun (seed, qsize) ->
      let rng = Random.State.make [| seed; 82 |] in
      let tbox = random_tbox rng in
      let q = random_tree_cq rng qsize in
      let omq = Omq.make tbox q in
      let abox = random_instance rng tbox in
      let bigger = Abox.copy abox in
      Abox.add_binary bigger (sym "R") (sym "c0") (sym "c1");
      Abox.add_unary bigger (sym "A") (sym "c2");
      let smaller_answers = Omq.answer_certain omq abox in
      let bigger_answers = Omq.answer_certain omq bigger in
      List.for_all (fun t -> List.mem t bigger_answers) smaller_answers)

(* ------------------------------------------------------------------ *)
(* 6. the planned semi-naïve engine is a drop-in for the naïve baseline:
      random NDL programs — recursive and non-recursive strata, repeated
      variables, constants — answer byte-identically under both engines,
      sequentially and under 4 workers *)

(* a random NDL program over the shared EDB signature: IDB predicates
   I0..I{n-1}, each defined by one or two clauses whose bodies mix EDB
   atoms with IDB atoms of index ≤ i+1 (an atom over I{i} or I{i+1} makes
   the stratum recursive, possibly mutually) *)
let random_ndl_program rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let npreds = 1 + Random.State.int rng 3 in
  let ipred i = sym (Printf.sprintf "I%d" i) in
  let vars = [ "x0"; "x1"; "x2"; "x3" ] in
  let rvar () = Ndl.Var (pick vars) in
  let rterm () =
    if Random.State.int rng 10 = 0 then
      Ndl.Cst (sym (Printf.sprintf "c%d" (Random.State.int rng 4)))
    else rvar ()
  in
  let clause i =
    (* always one EDB binary atom with two variables, so heads are safe *)
    let first = Ndl.Pred (sym (pick role_pool), [ rvar (); rvar () ]) in
    let extra =
      List.init (Random.State.int rng 3) (fun _ ->
          match Random.State.int rng 5 with
          | 0 | 1 -> Ndl.Pred (sym (pick role_pool), [ rterm (); rterm () ])
          | 2 -> Ndl.Pred (sym (pick concept_pool), [ rterm () ])
          | _ ->
            let j = Random.State.int rng (min npreds (i + 2)) in
            Ndl.Pred (ipred j, [ rterm (); rterm () ]))
    in
    let body = first :: extra in
    let body_vars =
      List.concat_map
        (function
          | Ndl.Pred (_, ts) ->
            List.filter_map (function Ndl.Var v -> Some v | _ -> None) ts
          | _ -> [])
        body
    in
    let hv () = Ndl.Var (pick body_vars) in
    { Ndl.head = (ipred i, [ hv (); hv () ]); body }
  in
  let clauses =
    List.concat
      (List.init npreds (fun i ->
           List.init (1 + Random.State.int rng 2) (fun _ -> clause i)))
  in
  Ndl.make ~goal:(ipred (npreds - 1)) ~goal_args:[ "ax"; "ay" ] clauses

let planner_differential =
  QCheck.Test.make ~count:30
    ~name:"semi-naïve + planner = naïve baseline (jobs 1 and 4)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 83 |] in
      let q = random_ndl_program rng in
      let abox =
        random_abox
          ~seed:(Random.State.int rng 1_000_000)
          ~consts:(4 + Random.State.int rng 3)
          ~unary:concept_pool ~binary:role_pool
          ~unary_atoms:(4 + Random.State.int rng 4)
          ~binary_atoms:(8 + Random.State.int rng 6)
      in
      let planned = Eval.answers q abox in
      let naive = Eval.answers ~naive:true q abox in
      let par, par_naive =
        Obda_runtime.Pool.with_pool ~jobs:4 (fun pool ->
            (Eval.answers ~pool q abox, Eval.answers ~pool ~naive:true q abox))
      in
      if planned <> naive then
        QCheck.Test.fail_reportf "planned vs naive: %d vs %d answers"
          (List.length planned) (List.length naive)
      else if planned <> par then
        QCheck.Test.fail_reportf "sequential vs 4 workers: %d vs %d answers"
          (List.length planned) (List.length par)
      else if naive <> par_naive then
        QCheck.Test.fail_reportf "naive sequential vs 4 workers: %d vs %d"
          (List.length naive) (List.length par_naive)
      else true)

(* ------------------------------------------------------------------ *)
(* 7. consistency handling: inconsistent data returns all tuples *)

let inconsistent_all_tuples () =
  let tbox =
    Tbox.make
      [
        Tbox.Concept_disj (Concept.Name (sym "A"), Concept.Name (sym "B"));
      ]
  in
  let q = Cq.make ~answer:[ "x" ] [ Cq.Unary (sym "C", "x") ] in
  let omq = Omq.make tbox q in
  let abox = abox_of_facts [ `U ("A", "c1"); `U ("B", "c1"); `U ("C", "c2") ] in
  let answers = Omq.answer omq abox in
  Alcotest.(check int) "all individuals returned" 2 (List.length answers);
  Alcotest.(check bool)
    "chase path agrees" true
    (Omq.answer_certain omq abox = answers)

let suites =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest (agreement_random_omqs Omq.Tw);
        QCheck_alcotest.to_alcotest (agreement_random_omqs Omq.Lin);
        QCheck_alcotest.to_alcotest (agreement_random_omqs Omq.Log);
        QCheck_alcotest.to_alcotest (agreement_random_omqs Omq.Ucq);
        QCheck_alcotest.to_alcotest (agreement_random_omqs Omq.Ucq_condensed);
        QCheck_alcotest.to_alcotest (agreement_random_omqs Omq.Presto_like);
        QCheck_alcotest.to_alcotest (star_commutes Omq.Tw);
        QCheck_alcotest.to_alcotest (star_commutes Omq.Lin);
        QCheck_alcotest.to_alcotest (star_commutes Omq.Log);
        QCheck_alcotest.to_alcotest inline_preserves;
        QCheck_alcotest.to_alcotest skinny_preserves;
        QCheck_alcotest.to_alcotest skinny_is_skinny;
        QCheck_alcotest.to_alcotest plain_cq_eval;
        QCheck_alcotest.to_alcotest monotone_in_data;
        QCheck_alcotest.to_alcotest planner_differential;
        Alcotest.test_case "inconsistent data returns all tuples" `Quick
          inconsistent_all_tuples;
      ] );
  ]
