(* Property-based tests over random ontologies and random tree-shaped and
   cyclic CQs: every rewriting agrees with the chase, called directly and
   through a session; the completion transformations commute with ABox
   completion; the optimiser preserves semantics. *)

open Obda_syntax
open Obda_ontology
open Obda_cq
open Obda_data
module Omq = Obda_rewriting.Omq
module Ndl = Obda_ndl.Ndl
module Eval = Obda_ndl.Eval
module Optimize = Obda_ndl.Optimize
module Skinny = Obda_ndl.Skinny
module Session = Obda_service.Session
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

(* a random CQ of treewidth at most 2: a cycle of 3–6 variables with
   random edge directions and roles, an optional chord (two cycles sharing
   an edge), up to two pendant edges and up to two unary atoms *)
let random_cycle_cq rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let edge a b =
    let p = sym (pick role_pool) in
    if Random.State.bool rng then Cq.Binary (p, a, b) else Cq.Binary (p, b, a)
  in
  let k = 3 + Random.State.int rng 4 in
  let v i = Printf.sprintf "y%d" i in
  let cycle = List.init k (fun i -> edge (v i) (v ((i + 1) mod k))) in
  let chord =
    if k >= 4 && Random.State.bool rng then
      [ edge (v 0) (v (2 + Random.State.int rng (k - 3))) ]
    else []
  in
  let pendants =
    List.init (Random.State.int rng 3) (fun i ->
        edge (v (Random.State.int rng (k + i))) (v (k + i)))
  in
  let vars = List.init (k + List.length pendants) v in
  let unary =
    List.init (Random.State.int rng 3) (fun _ ->
        Cq.Unary (sym (pick concept_pool), pick vars))
  in
  let answer = List.filter (fun _ -> Random.State.int rng 3 = 0) vars in
  Cq.make ~answer (cycle @ chord @ pendants @ unary)

(* [dense] draws 3–4 constants and 12–21 binary atoms instead of 4–6 and
   6–13: a cyclic CQ then has certain answers on about a third of the
   draws, where the sparser instances give it one in twenty *)
let random_instance ?(dense = false) rng tbox =
  let consts =
    if dense then 3 + Random.State.int rng 2 else 4 + Random.State.int rng 3
  in
  let markers =
    List.filter_map (fun r -> Tbox.exists_name_opt tbox r) (Tbox.roles tbox)
    |> List.map Symbol.name
  in
  random_abox
    ~seed:(Random.State.int rng 1_000_000)
    ~consts
    ~unary:(concept_pool @ markers)
    ~binary:role_pool ~unary_atoms:(3 + Random.State.int rng 4)
    ~binary_atoms:
      (if dense then 12 + Random.State.int rng 10
       else 6 + Random.State.int rng 8)

(* Whether [alg] answers as the chase does on every path: [Omq.answer]
   directly, and the path [obda serve] answers through — a session holding
   the TBox and the ABox, the query prepared under [alg] and answered
   twice, the second time on the plan the first run cached. *)
let agrees_with_chase alg (omq : Omq.t) abox =
  let expected = certain_answers omq abox in
  let s = Session.create () in
  Session.load_ontology s omq.tbox;
  Session.load_data s abox;
  let p, _ = Session.prepare s ~name:"q" ~algorithm:alg omq.cq in
  let served = show_tuples (Session.answer s p) in
  let legs =
    [
      ("direct", answers_via alg omq abox);
      ("served", served);
      ("served, cached plan", show_tuples (Session.answer s p));
    ]
  in
  match List.find_opt (fun (_, got) -> got <> expected) legs with
  | None -> true
  | Some (leg, got) ->
    QCheck.Test.fail_reportf "tbox=%s q=%s: %d vs %d answers (%s)"
      (String.concat "; "
         (List.map (Format.asprintf "%a" Tbox.pp_axiom) (Tbox.axioms omq.tbox)))
      (Format.asprintf "%a" Cq.pp omq.cq)
      (List.length expected) (List.length got) leg

(* ------------------------------------------------------------------ *)
(* 1. agreement of every applicable algorithm with the chase, on random
      ontologies and random tree CQs, called directly and through a
      session *)

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
      else agrees_with_chase alg omq (random_instance rng tbox))

(* ------------------------------------------------------------------ *)
(* 1b. Log on the CQs it exists for: cyclic CQs of treewidth 2 (§3.2),
       over finite-depth ontologies and dense instances, called directly
       and through a session *)

(* one draw: the ontology, the CQ and, when Log applies, the instance *)
let cycle_draw seed =
  let rng = Random.State.make [| seed; 85 |] in
  let tbox = random_tbox rng in
  let q = random_cycle_cq rng in
  let omq = Omq.make tbox q in
  if Omq.applicable Omq.Log omq then
    (omq, Some (random_instance ~dense:true rng tbox))
  else (omq, None)

let log_on_cycles =
  QCheck.Test.make ~count:60
    ~name:"random cyclic CQs of treewidth 2: Log agrees with chase"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let omq, abox = cycle_draw seed in
      let tw = Obda_cq.Tree_decomposition.treewidth_upper_bound omq.cq in
      if tw > 2 then
        QCheck.Test.fail_reportf "q=%s: treewidth bound %d > 2"
          (Format.asprintf "%a" Cq.pp omq.cq) tw
      else
        match abox with
        | None -> true (* infinite depth: Log does not apply *)
        | Some abox -> agrees_with_chase Omq.Log omq abox)

(* The draws of [log_on_cycles] must have certain answers often enough to
   test something: at least a fifth of the applicable ones, over a fixed
   range of seeds. *)
let test_cycle_draws_answer () =
  let applicable = ref 0 and nonempty = ref 0 in
  for seed = 0 to 299 do
    match cycle_draw seed with
    | _, None -> ()
    | omq, Some abox ->
      incr applicable;
      if certain_answers omq abox <> [] then incr nonempty
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d applicable draws have answers" !nonempty
       !applicable)
    true
    (!applicable >= 200 && 5 * !nonempty >= !applicable)

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
      variables, constants — answer byte-identically under both engines *)

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
    ~name:"semi-naïve + planner = naïve baseline"
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
      let naive = (Eval.run ~naive:true q abox).Eval.answers in
      planned = naive
      || QCheck.Test.fail_reportf "planned vs naive: %d vs %d answers"
           (List.length planned) (List.length naive))

(* ------------------------------------------------------------------ *)
(* 6b. renamings read in place: the planned engine answers a predicate
       that only renames another relation's columns from that relation
       (a view, or a stratum sharing its one live source), and must answer
       and count exactly what the naïve engine's copies hold, also through
       a cached plan after a write fills a source the plan saw empty *)

(* IDB predicates Nr0..Nr{n-1} of arity 2, each a view (an identity or
   swapped renaming, of an EDB predicate or of an earlier predicate, so
   views chain), a union of renamings, a join, a join through the unary
   view Ua, or a recursive stratum whose base clause is a renaming.
   Sources are the ABox's roles P, Q and R, S (empty until the property
   writes it), Z (always empty) and earlier predicates.  The goal is an
   identity renaming of an ABox role, a renaming of the last predicate, or
   a union of renamings. *)
let random_renaming_program rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let n = 2 + Random.State.int rng 5 in
  let ipred i = sym (Printf.sprintf "Nr%d" i) in
  let v x = Ndl.Var x in
  let atom p a b = Ndl.Pred (p, [ v a; v b ]) in
  let unary p a = Ndl.Pred (sym p, [ v a ]) in
  let source i =
    if i = 0 || Random.State.int rng 3 = 0 then
      sym (pick [ "P"; "Q"; "R"; "S"; "Z" ])
    else ipred (Random.State.int rng i)
  in
  let renaming head src =
    let args = if Random.State.bool rng then [ v "x"; v "y" ] else [ v "y"; v "x" ] in
    { Ndl.head = (head, args); body = [ atom src "x" "y" ] }
  in
  let defs i =
    let p = ipred i in
    match Random.State.int rng 6 with
    | 0 | 1 -> [ renaming p (source i) ]
    | 2 -> List.init (2 + Random.State.int rng 2) (fun _ -> renaming p (source i))
    | 3 ->
      [
        {
          Ndl.head = (p, [ v "x"; v "z" ]);
          body = [ atom (source i) "x" "y"; atom (source i) "y" "z" ];
        };
      ]
    | 4 ->
      [
        {
          Ndl.head = (p, [ v "x"; v "y" ]);
          body = [ atom (source i) "x" "y"; unary "Ua" "y" ];
        };
      ]
    | _ ->
      [
        renaming p (source i);
        {
          Ndl.head = (p, [ v "x"; v "z" ]);
          body = [ atom p "x" "y"; atom (source i) "y" "z" ];
        };
      ]
  in
  let goal = sym "Gr" in
  let goal_clauses =
    match Random.State.int rng 3 with
    | 0 ->
      [
        {
          Ndl.head = (goal, [ v "x"; v "y" ]);
          body = [ atom (sym (pick [ "P"; "Q"; "R" ])) "x" "y" ];
        };
      ]
    | 1 -> [ renaming goal (ipred (n - 1)) ]
    | _ -> List.init (1 + Random.State.int rng 2) (fun _ -> renaming goal (source n))
  in
  Ndl.make ~goal ~goal_args:[ "ax"; "ay" ]
    (List.concat (List.init n defs)
    @ ({ Ndl.head = (sym "Ua", [ v "x" ]); body = [ unary "A" "x" ] } :: goal_clauses))

let renamings_in_place =
  QCheck.Test.make ~count:60
    ~name:"renamings read in place = naïve copies (cached plan)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 84 |] in
      let q = random_renaming_program rng in
      let abox =
        random_abox
          ~seed:(Random.State.int rng 1_000_000)
          ~consts:(4 + Random.State.int rng 3)
          ~unary:[ "A"; "B" ] ~binary:[ "P"; "Q"; "R" ]
          ~unary_atoms:(3 + Random.State.int rng 4)
          ~binary_atoms:(8 + Random.State.int rng 6)
      in
      let cache = Eval.plan_cache () in
      let agree what (got : Eval.result) (naive : Eval.result) =
        (got.answers = naive.answers
        && got.generated_tuples = naive.generated_tuples)
        || QCheck.Test.fail_reportf
             "%s: %d answers and %d generated tuples, naive %d and %d@.%a" what
             (List.length got.answers) got.generated_tuples
             (List.length naive.answers) naive.generated_tuples Ndl.pp q
      in
      let check_all stage =
        let naive = Eval.run ~naive:true q abox in
        agree (stage ^ ", planned") (Eval.run q abox) naive
        && agree (stage ^ ", cached plan") (Eval.run ~plan:cache q abox) naive
      in
      check_all "before S is written"
      && begin
           (* one or two atoms: the cached plan stays within its 2x replan
              threshold, so the next run reuses it *)
           Abox.add_binary abox (sym "S") (sym "c0") (sym "c1");
           if Random.State.bool rng then
             Abox.add_binary abox (sym "S") (sym "c1") (sym "c2");
           check_all "after S is written"
         end)

(* ------------------------------------------------------------------ *)
(* 6c. goal-directed answering: [Eval.run] evaluates the program
       [Demand.transform] derives for the data (dead clauses dropped,
       strata the goal does not reach skipped, single-consumer predicates
       restricted to their demand) and must answer exactly the goal
       relation [Eval.materialise] computes in full: on both engines, fresh
       and on a cached plan (hit twice), before and after a write makes an
       EDB relation the program reads non-empty.  Both drop the same dead
       clauses, so a rewriting's goal relation is held to the chase too *)

module Demand = Obda_ndl.Demand

(* one draw: a renaming program (S empty until written) or a Tw, Lin or
   Log rewriting (with its OMQ) over an instance without one role, and the
   role that is then written *)
let goal_directed_draw seed =
  let rng = Random.State.make [| seed; 86 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  if Random.State.bool rng then
    let q = random_renaming_program rng in
    let abox =
      random_abox
        ~seed:(Random.State.int rng 1_000_000)
        ~consts:(4 + Random.State.int rng 3)
        ~unary:[ "A"; "B" ] ~binary:[ "P"; "Q"; "R" ]
        ~unary_atoms:(3 + Random.State.int rng 4)
        ~binary_atoms:(8 + Random.State.int rng 6)
    in
    Some (q, None, abox, "S")
  else
    let tbox = random_tbox rng in
    let omq = Omq.make tbox (random_tree_cq rng (1 + Random.State.int rng 4)) in
    let alg = pick [ Omq.Tw; Omq.Lin; Omq.Log ] in
    if not (Omq.applicable alg omq) then None
    else
      let missing = pick role_pool in
      let abox =
        random_abox
          ~seed:(Random.State.int rng 1_000_000)
          ~consts:(4 + Random.State.int rng 3)
          ~unary:concept_pool
          ~binary:(List.filter (fun r -> r <> missing) role_pool)
          ~unary_atoms:(3 + Random.State.int rng 4)
          ~binary_atoms:(8 + Random.State.int rng 8)
      in
      Some (Omq.rewrite ~over:`Arbitrary alg omq, Some omq, abox, missing)

let restricts q abox =
  (Demand.transform ~goal_directed:true
     ~relation:(fun p arity -> Abox.relation abox p ~arity)
     ~domain:(Abox.num_individuals abox) q)
    .restricted
  <> []

let goal_directed_answers =
  QCheck.Test.make ~count:80
    ~name:"goal-directed answers = materialised goal relation"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match goal_directed_draw seed with
      | None -> true
      | Some (q, omq, abox, missing) ->
        let caches = [| Eval.plan_cache (); Eval.plan_cache () |] in
        let check_all stage =
          let expected = (Eval.materialise q abox).Eval.answers in
          let sorted ts = List.sort compare ts in
          (match omq with
          | Some omq ->
            sorted (show_tuples expected) = sorted (certain_answers omq abox)
            || QCheck.Test.fail_reportf "%s: the materialised goal is not the chase's@.%a"
                 stage Ndl.pp q
          | None -> true)
          && List.for_all
            (fun naive ->
              let cache = caches.(Bool.to_int naive) in
              List.for_all
                (fun (leg, run) ->
                  run () = expected
                  || QCheck.Test.fail_reportf "%s, %s%s: %d answers, materialised %d@.%a"
                       stage leg
                       (if naive then ", naive" else "")
                       (List.length (run ())) (List.length expected) Ndl.pp q)
                [
                  ("fresh", fun () -> (Eval.run ~naive q abox).Eval.answers);
                  ("cached", fun () -> (Eval.run ~naive ~plan:cache q abox).answers);
                  ("cached again", fun () -> (Eval.run ~naive ~plan:cache q abox).answers);
                ])
            [ false; true ]
        in
        check_all "before the write"
        && begin
             Abox.add_binary abox (sym missing) (sym "c0") (sym "c1");
             check_all "after the write"
           end)

(* The draws must restrict often enough to test restriction: at least a
   tenth of them, over a fixed range of seeds. *)
let test_goal_directed_draws_restrict () =
  let drawn = ref 0 and restricted = ref 0 in
  for seed = 0 to 199 do
    match goal_directed_draw seed with
    | None -> ()
    | Some (q, _, abox, _) ->
      incr drawn;
      if restricts q abox then incr restricted
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d draws restrict" !restricted !drawn)
    true
    (!drawn >= 100 && 10 * !restricted >= !drawn)

(* ------------------------------------------------------------------ *)
(* Snapshot isolation, against a set model: random interleavings of adds
   and removes (self-loops included), snapshots of the live store and of
   snapshots, and writes to snapshots.  After every step each record must
   read exactly its own model, and its revision must count its own
   effective writes.  The engine must read each record's relations in
   place exactly as it reads a store rebuilt from the record's facts,
   planned and naive (whose probes are all index or row-set lookups), and
   the record must serialize to the rebuilt store's bytes. *)

module Fact_set = Set.Make (struct
  type t = Abox.fact

  let compare = compare
end)

let snapshot_isolation =
  let consts = List.map sym [ "c0"; "c1"; "c2" ] in
  let unary = List.map sym [ "A"; "B" ] and binary = List.map sym [ "P"; "Q" ] in
  let universe =
    List.concat_map
      (fun c ->
        List.map (fun p -> Abox.Concept_assertion (p, c)) unary
        @ List.concat_map
            (fun d -> List.map (fun p -> Abox.Role_assertion (p, c, d)) binary)
            consts)
      consts
  in
  let sorted l = List.sort compare l in
  let v x = Ndl.Var x and atom p ts = Ndl.Pred (sym p, ts) in
  let clause body = { Ndl.head = (sym "Giso", [ v "x"; v "y" ]); body } in
  let query =
    Ndl.make ~goal:(sym "Giso") ~goal_args:[ "x"; "y" ]
      [
        clause [ atom "A" [ v "x" ]; atom "P" [ v "x"; v "y" ] ];
        clause [ atom "Q" [ v "y"; v "x" ]; atom "B" [ v "y" ] ];
        clause
          [
            atom "P" [ v "x"; v "z" ]; atom "Q" [ v "z"; v "y" ];
            atom "P" [ v "y"; v "x" ];
          ];
      ]
  in
  let reads_like_rebuilt a =
    let rebuilt = Abox.of_facts (Abox.to_facts a) in
    List.for_all
      (fun naive ->
        (Eval.run ~naive query a).Eval.answers
        = (Eval.run ~naive query rebuilt).Eval.answers)
      [ false; true ]
    && Abox.serialize a = Abox.serialize rebuilt
  in
  let check_record (a, model, rev) =
    let inds =
      Fact_set.fold
        (fun f acc ->
          match f with
          | Abox.Concept_assertion (_, c) -> c :: acc
          | Abox.Role_assertion (_, c, d) -> c :: d :: acc)
        model []
      |> List.sort_uniq compare
    in
    (* the model's P-successors ([out]) or P-predecessors of c *)
    let adjacent p c ~out =
      Fact_set.fold
        (fun f acc ->
          match f with
          | Abox.Role_assertion (q, x, y) when Symbol.equal p q ->
            let src, dst = if out then (x, y) else (y, x) in
            if Symbol.equal src c then dst :: acc else acc
          | _ -> acc)
        model []
      |> sorted
    in
    sorted (Abox.to_facts a) = Fact_set.elements model
    && Abox.individuals a = inds
    && Abox.num_individuals a = List.length inds
    && Abox.num_atoms a = Fact_set.cardinal model
    && Abox.revision a = rev
    && List.for_all
         (fun f -> Abox.mem_fact a f = Fact_set.mem f model)
         universe
    && List.for_all
         (fun p ->
           List.for_all
             (fun c ->
               sorted (Abox.successors a p c) = adjacent p c ~out:true
               && sorted (Abox.predecessors a p c) = adjacent p c ~out:false)
             consts)
         binary
    && reads_like_rebuilt a
  in
  QCheck.Test.make ~count:200
    ~name:"snapshots are isolated: every record reads its own set model"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 97 |] in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      (* record 0 is the live store; every other one a snapshot, each with
         its model and expected revision *)
      let records = ref [| (Abox.create (), Fact_set.empty, 0) |] in
      let step k =
        let n = Array.length !records in
        match Random.State.int rng 10 with
        | (0 | 1) when n < 8 ->
          let i = Random.State.int rng n in
          let a, model, rev = !records.(i) in
          records := Array.append !records [| (Abox.snapshot a, model, rev) |];
          Printf.sprintf "snapshot of record %d" i
        | r ->
          (* the live store takes most writes; binary facts are self-loops
             a third of the time *)
          let i = if r < 6 then 0 else Random.State.int rng n in
          let a, model, rev = !records.(i) in
          let c = pick consts in
          let fact =
            if Random.State.bool rng then Abox.Concept_assertion (pick unary, c)
            else
              let d = if Random.State.int rng 3 = 0 then c else pick consts in
              Abox.Role_assertion (pick binary, c, d)
          in
          let present = Fact_set.mem fact model in
          let add = Random.State.bool rng in
          if add then Abox.add_fact a fact
          else if Abox.remove_fact a fact <> present then
            QCheck.Test.fail_reportf "step %d: remove reported %b" k
              (not present);
          let model =
            (if add then Fact_set.add else Fact_set.remove) fact model
          in
          !records.(i) <- (a, model, if add <> present then rev + 1 else rev);
          Format.asprintf "%s %a on record %d"
            (if add then "add" else "remove")
            Abox.pp_fact fact i
      in
      for k = 1 to 40 do
        let what = step k in
        Array.iteri
          (fun j r ->
            if not (check_record r) then
              QCheck.Test.fail_reportf
                "step %d (%s): record %d disagrees with its model" k what j)
          !records
      done;
      true)

(* ------------------------------------------------------------------ *)
(* 7. the closure fact the Tw rewriter enumerates by: each subquery it
      forms — a branch of q − z with z an answer variable, or a component
      of q minus q_t with the roots as answer variables — keeps every atom
      of its existential variables, so its tree witnesses are those of q
      whose interior lies in its existential variables, in the same order *)

let tree_witness_closure =
  QCheck.Test.make ~count:150
    ~name:"Tw subqueries: their tree witnesses are the CQ's, selected"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 6))
    (fun (seed, qsize) ->
      let module Tree_witness = Obda_rewriting.Tree_witness in
      let rng = Random.State.make [| seed; 91 |] in
      let tbox = random_tbox rng in
      let q = random_tree_cq rng qsize in
      let x = Cq.answer_vars q in
      let all = Tree_witness.enumerate tbox q in
      let g = Cq.gaifman q in
      let atoms_meeting vars =
        List.filter
          (fun a -> List.exists (fun v -> List.mem v vars) (Cq.atom_vars a))
          (Cq.atoms q)
      in
      let branches =
        List.concat_map
          (fun z ->
            let rest =
              List.filter (fun v -> v <> z) (Cq.vars q) |> List.map (Cq.var_index q)
            in
            List.map
              (fun branch ->
                atoms_meeting (List.map (Cq.var_of_index q) branch)
                |> Cq.restrict_to q ~answer:(x @ [ z ]))
              (Ugraph.components_within g rest))
          (Cq.existential_vars q)
      in
      let complements =
        List.concat_map
          (fun (t : Tree_witness.t) ->
            match List.filter (fun a -> not (List.mem a t.atoms)) (Cq.atoms q) with
            | [] -> []
            | remaining ->
              let answer = x @ List.filter (fun r -> not (List.mem r x)) t.roots in
              Cq.connected_components (Cq.restrict_to q ~answer remaining))
          all
      in
      List.for_all
        (fun sub ->
          Tree_witness.enumerate tbox sub = Tree_witness.within all sub
          || QCheck.Test.fail_reportf "tbox=%s q=%a sub=%a"
               (String.concat "; "
                  (List.map (Format.asprintf "%a" Tbox.pp_axiom) (Tbox.axioms tbox)))
               Cq.pp q Cq.pp sub)
        (branches @ complements))

(* ------------------------------------------------------------------ *)
(* 8. the relation kernel: the row order every answer, materialisation
      and checkpoint is written in, and the capacity hint *)

(* Random writes to a relation of [arity]: adds of rows over a value pool
   that mixes small ids, ids of 2^22 and above up to [max_int] (more radix
   digits, every one of them at the top) and, in one case of eight,
   negative values; then removals of about a quarter of the rows tried. *)
let random_writes rng arity =
  let small = [| 1; 500; 40; 9; 6 |].(arity) in
  let negatives = Random.State.int rng 8 = 0 in
  let value () =
    match Random.State.int rng 24 with
    | 0 -> (1 lsl 22) + Random.State.int rng 4
    | 1 -> (1 lsl 40) + Random.State.int rng 3
    | 4 -> max_int - Random.State.int rng 3
    | 2 -> Random.State.int rng ((1 lsl 30) - 1)
    | 3 when negatives -> -1 - Random.State.int rng 3
    | _ -> Random.State.int rng small
  in
  let row _ = Array.init arity (fun _ -> value ()) in
  let rows = List.init (Random.State.int rng 400) row in
  (rows, List.filter (fun _ -> Random.State.int rng 4 = 0) rows)

let apply_writes r (adds, removes) =
  List.map (fun row -> Relation.add r row 0) adds
  @ List.map (fun row -> Relation.remove r row 0) removes

let sorted_ids_order =
  QCheck.Test.make ~count:300
    ~name:"Relation.sorted_ids = comparison order (arity 0-4, after removals)"
    QCheck.(pair (int_range 0 4) (int_bound 1_000_000))
    (fun (arity, seed) ->
      let rng = Random.State.make [| seed; 23 |] in
      let r = Relation.create arity in
      ignore (apply_writes r (random_writes rng arity));
      let row id = Array.to_list (Array.sub r.data (id * arity) arity) in
      let expected =
        List.sort
          (fun i j -> List.compare Int.compare (row i) (row j))
          (List.init r.size Fun.id)
      in
      Array.to_list (Relation.sorted_ids r) = expected
      || QCheck.Test.fail_reportf "arity %d, %d rows" arity r.size)

(* Every id's chain on an index: the rows sharing its key, in chain order. *)
let chains r positions =
  let ix = Relation.index r positions in
  List.init r.Relation.size (fun id ->
      let key = Array.map (fun k -> r.data.((id * r.arity) + k)) positions in
      let rec walk row acc =
        if row < 0 then List.rev acc else walk ix.Relation.next.(row) (row :: acc)
      in
      walk (Relation.probe ix r key) [])

let capacity_transparent =
  QCheck.Test.make ~count:200
    ~name:"Relation.create ?capacity: same rows, ids and index chains"
    QCheck.(triple (int_range 0 4) (int_bound 5000) (int_bound 1_000_000))
    (fun (arity, capacity, seed) ->
      let rng = Random.State.make [| seed; 29 |] in
      let writes = random_writes rng arity in
      (* an index on position 0 registered before the writes, one on the
         other positions after them *)
      let early = if arity >= 1 then [ [| 0 |] ] else [] in
      let late = if arity >= 2 then [ Array.init (arity - 1) succ ] else [] in
      let build r =
        List.iter (fun ps -> ignore (Relation.index r ps)) early;
        let outcomes = apply_writes r writes in
        List.iter (fun ps -> ignore (Relation.index r ps)) late;
        outcomes
      in
      let plain = Relation.create arity in
      let sized = Relation.create ~capacity arity in
      let outcomes = build plain in
      let outcomes' = build sized in
      let rows (r : Relation.t) = Array.sub r.data 0 (r.size * arity) in
      let found (r : Relation.t) =
        List.init r.size (fun id -> Relation.find r r.data (id * arity))
      in
      (outcomes = outcomes'
      && plain.size = sized.size
      && rows plain = rows sized
      && found plain = found sized
      && List.for_all (fun ps -> chains plain ps = chains sized ps) (early @ late))
      || QCheck.Test.fail_reportf "arity %d, capacity %d, %d rows" arity capacity
           plain.size)

(* ------------------------------------------------------------------ *)
(* 9. consistency handling: inconsistent data returns all tuples *)

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
        QCheck_alcotest.to_alcotest log_on_cycles;
        Alcotest.test_case "cyclic CQ draws have certain answers" `Quick
          test_cycle_draws_answer;
        QCheck_alcotest.to_alcotest (star_commutes Omq.Tw);
        QCheck_alcotest.to_alcotest (star_commutes Omq.Lin);
        QCheck_alcotest.to_alcotest (star_commutes Omq.Log);
        QCheck_alcotest.to_alcotest inline_preserves;
        QCheck_alcotest.to_alcotest skinny_preserves;
        QCheck_alcotest.to_alcotest skinny_is_skinny;
        QCheck_alcotest.to_alcotest plain_cq_eval;
        QCheck_alcotest.to_alcotest monotone_in_data;
        QCheck_alcotest.to_alcotest planner_differential;
        QCheck_alcotest.to_alcotest renamings_in_place;
        QCheck_alcotest.to_alcotest goal_directed_answers;
        Alcotest.test_case "goal-directed draws restrict" `Quick
          test_goal_directed_draws_restrict;
        QCheck_alcotest.to_alcotest snapshot_isolation;
        QCheck_alcotest.to_alcotest tree_witness_closure;
        QCheck_alcotest.to_alcotest sorted_ids_order;
        QCheck_alcotest.to_alcotest capacity_transparent;
        Alcotest.test_case "inconsistent data returns all tuples" `Quick
          inconsistent_all_tuples;
      ] );
  ]
