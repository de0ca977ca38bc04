open Obda_syntax
open Obda_ontology
module Ndl = Obda_ndl.Ndl
module Eval = Obda_ndl.Eval
module Star = Obda_ndl.Star
module Skinny = Obda_ndl.Skinny
module Optimize = Obda_ndl.Optimize
module Relation = Obda_data.Relation
module Abox = Obda_data.Abox
module Obs = Obda_obs.Obs
open Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let v x = Ndl.Var x
let p name ts = Ndl.Pred (sym name, ts)

(* G(x) ← R(x,y) ∧ Q(x);  Q(x) ← R(y,x)   (Example 1 of the paper) *)
let example1 =
  Ndl.make ~goal:(sym "G1") ~goal_args:[ "x" ]
    ~params:(Symbol.Map.singleton (sym "G1") 1 |> Symbol.Map.add (sym "Q1") 1)
    [
      { Ndl.head = (sym "G1", [ v "x" ]); body = [ p "R" [ v "x"; v "y" ]; p "Q1" [ v "x" ] ] };
      { Ndl.head = (sym "Q1", [ v "x" ]); body = [ p "R" [ v "y"; v "x" ] ] };
    ]

let test_example1_analysis () =
  check "nonrecursive" true (Ndl.is_nonrecursive example1);
  check "linear" true (Ndl.is_linear example1);
  check_int "width 1 (x is a parameter)" 1 (Ndl.width example1);
  check_int "depth 2" 2 (Ndl.depth example1);
  match Ndl.strata example1 with
  | [ ([ q1 ], false); ([ g1 ], false) ] ->
    check "strata dependencies first" true
      (Symbol.equal q1 (sym "Q1") && Symbol.equal g1 (sym "G1"))
  | _ -> Alcotest.fail "unexpected strata for example 1"

let test_example1_eval () =
  let a = abox_of_facts [ `B ("R", "c1", "c2"); `B ("R", "c2", "c1") ] in
  let r = Eval.run example1 a in
  Alcotest.(check (list (list string)))
    "answers"
    [ [ "c1" ]; [ "c2" ] ]
    (* sorted by name: the engine orders answers by intern id *)
    (List.sort compare (show_tuples r.Eval.answers))

let test_eval_equality_and_dom () =
  let q =
    Ndl.make ~goal:(sym "G3") ~goal_args:[ "x"; "y" ]
      [
        {
          Ndl.head = (sym "G3", [ v "x"; v "y" ]);
          body = [ p "A" [ v "x" ]; Ndl.Eq (v "x", v "y"); Ndl.Dom (v "y") ];
        };
      ]
  in
  let a = abox_of_facts [ `U ("A", "c1"); `U ("B", "c2") ] in
  Alcotest.(check (list (list string)))
    "equality binds"
    [ [ "c1"; "c1" ] ]
    (show_tuples (Eval.answers q a))

let test_eval_constants () =
  let q =
    Ndl.make ~goal:(sym "G4") ~goal_args:[ "x" ]
      [
        {
          Ndl.head = (sym "G4", [ v "x" ]);
          body = [ p "R" [ Ndl.Cst (sym "c1"); v "x" ] ];
        };
      ]
  in
  let a = abox_of_facts [ `B ("R", "c1", "c2"); `B ("R", "c3", "c4") ] in
  Alcotest.(check (list (list string)))
    "constant filter" [ [ "c2" ] ]
    (show_tuples (Eval.answers q a))

let test_eval_boolean_goal () =
  let q =
    Ndl.make ~goal:(sym "G5") ~goal_args:[]
      [ { Ndl.head = (sym "G5", []); body = [ p "A" [ v "x" ] ] } ]
  in
  check "true" true (Eval.boolean q (abox_of_facts [ `U ("A", "c1") ]));
  check "false" false (Eval.boolean q (abox_of_facts [ `U ("B", "c1") ]))

let test_generated_tuples () =
  let a = abox_of_facts [ `B ("R", "c1", "c2"); `B ("R", "c2", "c1") ] in
  let r = Eval.run example1 a in
  (* Q1 = {c1,c2}, G1 = {c1,c2} *)
  check_int "generated tuples" 4 r.Eval.generated_tuples

let test_weight_and_skinny_depth () =
  (* chain with two IDB atoms per clause: weights grow *)
  let clauses =
    [
      { Ndl.head = (sym "W0", [ v "x" ]); body = [ p "E" [ v "x" ] ] };
      {
        Ndl.head = (sym "W1", [ v "x" ]);
        body = [ p "W0" [ v "x" ]; p "W0" [ v "x" ] ];
      };
      {
        Ndl.head = (sym "W2", [ v "x" ]);
        body = [ p "W1" [ v "x" ]; p "W1" [ v "x" ] ];
      };
    ]
  in
  let q = Ndl.make ~goal:(sym "W2") ~goal_args:[ "x" ] clauses in
  let w = Ndl.weight q in
  check_int "ν(W0)=1" 1 (Symbol.Map.find (sym "W0") w);
  check_int "ν(W1)=2" 2 (Symbol.Map.find (sym "W1") w);
  check_int "ν(W2)=4" 4 (Symbol.Map.find (sym "W2") w);
  check "skinny depth finite" true (Ndl.skinny_depth q > 0.0)

let test_skinny_transform_equivalence () =
  (* wide clause: G(x) ← A(x) ∧ R(x,y) ∧ S(y,z) ∧ B(z) ∧ Q(x) ∧ Q2(z) *)
  let clauses =
    [
      {
        Ndl.head = (sym "G6", [ v "x" ]);
        body =
          [
            p "A" [ v "x" ];
            p "R" [ v "x"; v "y" ];
            p "S" [ v "y"; v "z" ];
            p "B" [ v "z" ];
            p "Q6" [ v "x" ];
            p "Q7" [ v "z" ];
          ];
      };
      { Ndl.head = (sym "Q6", [ v "x" ]); body = [ p "A" [ v "x" ] ] };
      { Ndl.head = (sym "Q7", [ v "x" ]); body = [ p "B" [ v "x" ] ] };
    ]
  in
  let q = Ndl.make ~goal:(sym "G6") ~goal_args:[ "x" ] clauses in
  let sk = Skinny.transform q in
  check "result is skinny" true (Ndl.is_skinny sk);
  check "depth within skinny bound" true
    (float_of_int (Ndl.depth sk) <= Ndl.skinny_depth q +. 1.0);
  for seed = 0 to 9 do
    let a =
      random_abox ~seed ~consts:6 ~unary:[ "A"; "B" ] ~binary:[ "R"; "S" ]
        ~unary_atoms:8 ~binary_atoms:12
    in
    Alcotest.(check (list (list string)))
      "same answers"
      (show_tuples (Eval.answers q a))
      (show_tuples (Eval.answers sk a))
  done

let test_prune () =
  let clauses =
    [
      { Ndl.head = (sym "G8", [ v "x" ]); body = [ p "A" [ v "x" ] ] };
      (* dead: references an IDB predicate with no definition *)
      { Ndl.head = (sym "G8", [ v "x" ]); body = [ p "Dead8" [ v "x" ] ] };
      (* unreachable from the goal *)
      { Ndl.head = (sym "Orphan8", [ v "x" ]); body = [ p "A" [ v "x" ] ] };
    ]
  in
  let q = Ndl.make ~goal:(sym "G8") ~goal_args:[ "x" ] clauses in
  let edb pr = Symbol.equal pr (sym "A") in
  let pruned = Optimize.prune ~edb q in
  check_int "one clause remains" 1 (Ndl.num_clauses pruned)

let test_inline () =
  let clauses =
    [
      {
        Ndl.head = (sym "G9", [ v "x"; v "y" ]);
        body = [ p "H9" [ v "x"; v "z" ]; p "R" [ v "z"; v "y" ] ];
      };
      {
        Ndl.head = (sym "H9", [ v "x"; v "z" ]);
        body = [ p "R" [ v "x"; v "w" ]; p "R" [ v "w"; v "z" ] ];
      };
    ]
  in
  let q = Ndl.make ~goal:(sym "G9") ~goal_args:[ "x"; "y" ] clauses in
  let inlined = Optimize.inline_single_use q in
  check_int "single clause after inlining" 1 (Ndl.num_clauses inlined);
  for seed = 0 to 9 do
    let a =
      random_abox ~seed ~consts:5 ~unary:[] ~binary:[ "R" ] ~unary_atoms:0
        ~binary_atoms:10
    in
    Alcotest.(check (list (list string)))
      "same answers"
      (show_tuples (Eval.answers q a))
      (show_tuples (Eval.answers inlined a))
  done

let test_star_generic () =
  let t =
    Tbox.make
      [
        Tbox.Concept_incl (Concept.Name (sym "B"), Concept.Name (sym "A"));
        Tbox.Role_incl (role "P", role "R");
      ]
  in
  let q =
    Ndl.make ~goal:(sym "G10") ~goal_args:[ "x" ]
      [
        {
          Ndl.head = (sym "G10", [ v "x" ]);
          body = [ p "A" [ v "x" ]; p "R" [ v "x"; v "y" ] ];
        };
      ]
  in
  let starred = Star.complete_to_arbitrary t q in
  let a = abox_of_facts [ `U ("B", "c1"); `B ("P", "c1", "c2") ] in
  Alcotest.(check (list (list string)))
    "complete-level program misses"
    []
    (show_tuples (Eval.answers q a));
  Alcotest.(check (list (list string)))
    "starred program answers"
    [ [ "c1" ] ]
    (show_tuples (Eval.answers starred a))

let test_star_linear () =
  let t =
    Tbox.make
      [
        Tbox.Concept_incl (Concept.Name (sym "B"), Concept.Name (sym "A"));
        Tbox.Concept_incl (Concept.Exists (role "P-"), Concept.Name (sym "A"));
        Tbox.Role_incl (role "P", role "R");
      ]
  in
  let q =
    Ndl.make ~goal:(sym "G11") ~goal_args:[ "x" ]
      ~params:(Symbol.Map.singleton (sym "G11") 1)
      [
        {
          Ndl.head = (sym "G11", [ v "x" ]);
          body = [ p "A" [ v "x" ]; p "R" [ v "x"; v "y" ] ];
        };
      ]
  in
  let starred = Star.complete_to_arbitrary_linear t q in
  check "still linear" true (Ndl.is_linear starred);
  check "width grows by at most 1" true
    (Ndl.width starred <= Ndl.width q + 1 + 1);
  let a = abox_of_facts [ `B ("P", "c2", "c1"); `B ("P", "c1", "c3") ] in
  (* A(c1) via ∃P⁻ ⊑ A, R(c1,c3) via P ⊑ R *)
  Alcotest.(check (list (list string)))
    "lemma 3 program answers"
    [ [ "c1" ] ]
    (show_tuples (Eval.answers starred a))

(* Satellite regression tests for the CPred binding/undo paths. *)
let check_answers msg q a expected =
  Alcotest.(check (list (list string))) msg expected
    (show_tuples (Eval.answers q a))

let test_repeated_vars_in_atom () =
  (* R(x,x): the second occurrence of x is bound when the first position
     binds it, so matching R(a,b) must fail and undo the binding of x. *)
  let q =
    Ndl.make ~goal:(sym "G12") ~goal_args:[ "x" ]
      [ { Ndl.head = (sym "G12", [ v "x" ]); body = [ p "R" [ v "x"; v "x" ] ] } ]
  in
  let a =
    abox_of_facts
      [ `B ("R", "a", "a"); `B ("R", "a", "b"); `B ("R", "b", "a"); `B ("R", "c", "c") ]
  in
  check_answers "diagonal only" q a [ [ "a" ]; [ "c" ] ];
  (* the failed R(a,b) probe must not leave x bound: a second atom over the
     same variable still enumerates freely *)
  let q2 =
    Ndl.make ~goal:(sym "G13") ~goal_args:[ "x"; "y" ]
      [
        {
          Ndl.head = (sym "G13", [ v "x"; v "y" ]);
          body = [ p "R" [ v "x"; v "x" ]; p "R" [ v "x"; v "y" ] ];
        };
      ]
  in
  check_answers "binding undone after mismatch" q2 a
    [ [ "a"; "a" ]; [ "a"; "b" ]; [ "c"; "c" ] ]

let test_constants_at_indexed_positions () =
  (* A bound constant at an indexed position of a non-leading atom: the
     lookup uses the index, and a mismatch must undo only the variables
     bound by this atom, not the constant check's context. *)
  let q =
    Ndl.make ~goal:(sym "G14") ~goal_args:[ "x" ]
      [
        {
          Ndl.head = (sym "G14", [ v "x" ]);
          body = [ p "A" [ v "x" ]; p "R" [ v "x"; Ndl.Cst (sym "b") ] ];
        };
      ]
  in
  let a =
    abox_of_facts
      [
        `U ("A", "a"); `U ("A", "c"); `U ("A", "d");
        `B ("R", "a", "b"); `B ("R", "c", "z"); `B ("R", "d", "b"); `B ("R", "d", "z");
      ]
  in
  check_answers "constant at indexed position" q a [ [ "a" ]; [ "d" ] ];
  (* constants in the leading atom: the first-atom partition filter must
     still see every matching tuple exactly once *)
  let q2 =
    Ndl.make ~goal:(sym "G15") ~goal_args:[ "y" ]
      [
        {
          Ndl.head = (sym "G15", [ v "y" ]);
          body = [ p "R" [ Ndl.Cst (sym "d"); v "y" ] ];
        };
      ]
  in
  check_answers "constant in leading atom" q2 a [ [ "b" ]; [ "z" ] ]

let test_unbound_unbound_eq_sweep () =
  (* x = y with both sides unbound sweeps the active domain; the parallel
     driver partitions that sweep by constant. *)
  let q =
    Ndl.make ~goal:(sym "G16") ~goal_args:[ "x"; "y" ]
      [
        {
          Ndl.head = (sym "G16", [ v "x"; v "y" ]);
          body = [ Ndl.Eq (v "x", v "y"); p "A" [ v "x" ] ];
        };
      ]
  in
  let a = abox_of_facts [ `U ("A", "a"); `U ("A", "b"); `U ("B", "c") ] in
  check_answers "unbound-unbound Eq sweep" q a [ [ "a"; "a" ]; [ "b"; "b" ] ];
  (* x = x: one variable, still a domain sweep, each constant once *)
  let q2 =
    Ndl.make ~goal:(sym "G17") ~goal_args:[ "x" ]
      [ { Ndl.head = (sym "G17", [ v "x" ]); body = [ Ndl.Eq (v "x", v "x") ] } ]
  in
  check_answers "x = x sweeps the domain once" q2 a
    [ [ "a" ]; [ "b" ]; [ "c" ] ]

(* Recursion is supported now: a recursive stratum runs a semi-naïve
   fixpoint.  [Ndl.topo_order] keeps its old contract (it stratifies
   nonrecursive programs only), and a recursive stratum with no base case
   converges to the empty fixpoint instead of raising. *)
let test_recursive_fixpoint () =
  let bad =
    Ndl.make ~goal:(sym "G2") ~goal_args:[]
      [
        { Ndl.head = (sym "G2", []); body = [ p "H2" [] ] };
        { Ndl.head = (sym "H2", []); body = [ p "G2" [] ] };
      ]
  in
  check "recursive detected" false (Ndl.is_nonrecursive bad);
  check "topo_order still rejects recursion" true
    (try
       ignore (Ndl.topo_order bad);
       false
     with Invalid_argument _ -> true);
  (match Ndl.strata bad with
  | [ (scc, true) ] ->
    check "one recursive stratum of G2 and H2" true
      (List.exists (Symbol.equal (sym "G2")) scc
      && List.exists (Symbol.equal (sym "H2")) scc
      && List.length scc = 2)
  | _ -> Alcotest.fail "expected a single recursive stratum");
  check "no base case: empty fixpoint, not an error" false
    (Eval.boolean bad (abox_of_facts [ `U ("A", "c1") ]));
  (* transitive closure of a chain, with a quadratic recursive clause so
     the full relation is probed while it grows across rounds *)
  let tc =
    Ndl.make ~goal:(sym "T") ~goal_args:[ "x"; "y" ]
      [
        { Ndl.head = (sym "T", [ v "x"; v "y" ]); body = [ p "E" [ v "x"; v "y" ] ] };
        {
          Ndl.head = (sym "T", [ v "x"; v "z" ]);
          body = [ p "T" [ v "x"; v "y" ]; p "T" [ v "y"; v "z" ] ];
        };
      ]
  in
  check "tc is recursive" false (Ndl.is_nonrecursive tc);
  let n = 24 in
  let name i = Printf.sprintf "n%02d" i in
  let a =
    abox_of_facts (List.init (n - 1) (fun i -> `B ("E", name i, name (i + 1))))
  in
  let expected =
    List.concat
      (List.init n (fun i ->
           List.init (n - 1 - i) (fun k -> [ name i; name (i + k + 1) ])))
  in
  (* answers come back sorted by symbol id, which depends on global intern
     order; pin byte-identity across engines and set equality by name *)
  let seq = show_tuples (Eval.answers tc a) in
  Alcotest.(check (list (list string)))
    "naive fixpoint byte-identical" seq
    (show_tuples (Eval.run ~naive:true tc a).Eval.answers);
  Alcotest.(check (list (list string)))
    "transitive closure of a chain" expected
    (List.sort compare seq);
  (* the delta rounds must not thrash the full relation's indexes: one
     full-scan build per position list, maintained incrementally as the
     fixpoint grows the relation *)
  let r = Eval.run tc a in
  let trel = Symbol.Map.find (sym "T") (Lazy.force r.Eval.idb_relations) in
  check_int "one index build per position list on the full relation"
    (List.length trel.Relation.indexes)
    trel.index_builds;
  check "full relation was probed via a maintained index" true
    (trel.index_builds >= 1);
  check "rounds did not rebuild indexes" true (trel.index_builds <= 2)

(* [eval.derived_facts] counts each derived tuple once: a straight
   stratum by the size of its fresh relation (a duplicate from a second
   clause is not derived again), a fixpoint by the tuples each round
   finds new.  Both engines agree. *)
let test_derived_facts_counter () =
  let q =
    Ndl.make ~goal:(sym "Gdf") ~goal_args:[ "x" ]
      [
        { Ndl.head = (sym "Tdf", [ v "x"; v "y" ]); body = [ p "E" [ v "x"; v "y" ] ] };
        {
          Ndl.head = (sym "Tdf", [ v "x"; v "z" ]);
          body = [ p "Tdf" [ v "x"; v "y" ]; p "E" [ v "y"; v "z" ] ];
        };
        { Ndl.head = (sym "Gdf", [ v "x" ]); body = [ p "Tdf" [ v "x"; v "y" ]; p "A" [ v "y" ] ] };
        { Ndl.head = (sym "Gdf", [ v "x" ]); body = [ p "E" [ v "x"; v "y" ]; p "A" [ v "y" ] ] };
      ]
  in
  let a =
    abox_of_facts
      [ `B ("E", "d0", "d1"); `B ("E", "d1", "d2"); `B ("E", "d2", "d3"); `U ("A", "d3") ]
  in
  List.iter
    (fun naive ->
      let r, c = Obs.collecting (fun () -> Eval.run ~naive q a) in
      let engine = if naive then "naive" else "planned" in
      (* Tdf: the 6 pairs of the chain's closure; Gdf: d0, d1, d2 *)
      check_int (engine ^ " generated tuples") 9 r.Eval.generated_tuples;
      check_int (engine ^ " eval.derived_facts") 9
        (Obs.Collector.counter c "eval.derived_facts"))
    [ false; true ]

let test_mutual_recursion () =
  let q =
    Ndl.make ~goal:(sym "Even") ~goal_args:[ "x" ]
      [
        { Ndl.head = (sym "Even", [ v "x" ]); body = [ p "Zero" [ v "x" ] ] };
        {
          Ndl.head = (sym "Even", [ v "y" ]);
          body = [ p "Odd" [ v "x" ]; p "E" [ v "x"; v "y" ] ];
        };
        {
          Ndl.head = (sym "Odd", [ v "y" ]);
          body = [ p "Even" [ v "x" ]; p "E" [ v "x"; v "y" ] ];
        };
      ]
  in
  (match Ndl.strata q with
  | [ (scc, true) ] ->
    check "Even and Odd share a recursive stratum" true
      (List.exists (Symbol.equal (sym "Even")) scc
      && List.exists (Symbol.equal (sym "Odd")) scc)
  | _ -> Alcotest.fail "expected a single recursive stratum");
  let a =
    abox_of_facts
      [
        `U ("Zero", "mr0"); `B ("E", "mr0", "mr1"); `B ("E", "mr1", "mr2");
        `B ("E", "mr2", "mr3"); `B ("E", "mr3", "mr4");
      ]
  in
  let seq = show_tuples (Eval.answers q a) in
  Alcotest.(check (list (list string)))
    "naive fixpoint byte-identical" seq
    (show_tuples (Eval.run ~naive:true q a).Eval.answers);
  Alcotest.(check (list (list string)))
    "mutual recursion fixpoint"
    [ [ "mr0" ]; [ "mr2" ]; [ "mr4" ] ]
    (List.sort compare seq)

(* The planner must rescue a deliberately pessimal written order: a large
   unbound relation first, the selective unary filter last. *)
let test_planner_reorders () =
  let q =
    Ndl.make ~goal:(sym "G18") ~goal_args:[ "x" ]
      [
        {
          Ndl.head = (sym "G18", [ v "x" ]);
          body = [ p "R" [ v "x"; v "y" ]; p "A" [ v "x" ] ];
        };
      ]
  in
  let a =
    abox_of_facts
      (`U ("A", "r00")
      :: List.init 20 (fun i ->
             `B ("R", Printf.sprintf "r%02d" i, Printf.sprintf "s%02d" i)))
  in
  let index_of hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      if i + nn > nh then None
      else if String.sub hay i nn = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  let explain ?naive q a =
    let lines = ref [] in
    ignore (Eval.run ?naive ~explain:(fun l -> lines := l :: !lines) q a);
    List.rev !lines
  in
  (match explain q a with
  | [ line ] ->
    check "plan marked as reordered" true (index_of line "(reordered)" <> None);
    (match (index_of line "A(x)", index_of line "R(x,y)") with
    | Some ia, Some ir -> check "selective atom runs first" true (ia < ir)
    | _ -> Alcotest.fail ("atoms missing from plan line: " ^ line))
  | lines ->
    Alcotest.fail
      (Printf.sprintf "expected one plan line, got %d" (List.length lines)));
  (match explain ~naive:true q a with
  | [ line ] ->
    check "naive plan keeps the written order" true
      (index_of line "(reordered)" = None)
  | _ -> Alcotest.fail "expected one naive plan line");
  let planned = Eval.run q a in
  let naive = Eval.run ~naive:true q a in
  Alcotest.(check (list (list string)))
    "planned and naive agree"
    (show_tuples naive.Eval.answers)
    (show_tuples planned.Eval.answers);
  check "reorder reads strictly fewer tuples" true
    (planned.Eval.tuples_read < naive.Eval.tuples_read)

(* Pinned cost-model behaviour on synthetic statistics: greedy reorder,
   index probes for large maintained relations, hash joins for transient
   (delta) relations, scans for tiny ones. *)
let test_plan_cost_model () =
  let module Plan = Obda_ndl.Plan in
  let big = sym "Big19" and small = sym "Small19" and delta = sym "Delta19" in
  let stats =
    {
      Plan.card =
        (fun s ->
          if Symbol.equal s big then 1000
          else if Symbol.equal s delta then 40
          else 2);
      distinct = (fun _ _ -> None);
      transient = (fun s -> Symbol.equal s delta);
      domain = 50;
    }
  in
  let atoms =
    [
      Plan.CPred (big, [| Plan.CV 0; Plan.CV 1 |]);
      Plan.CPred (small, [| Plan.CV 0 |]);
      Plan.CPred (delta, [| Plan.CV 1; Plan.CV 2 |]);
    ]
  in
  let plan = Plan.make stats ~nvars:3 atoms in
  check "pessimal body reordered" true plan.Plan.reordered;
  (match plan.Plan.steps with
  | [ s1; s2; s3 ] ->
    let pred_of s =
      match s.Plan.atom with
      | Plan.CPred (pr, _) -> pr
      | _ -> Alcotest.fail "expected predicate steps"
    in
    check "tiny relation leads" true (Symbol.equal (pred_of s1) small);
    check "tiny relation scanned" true (s1.Plan.strategy = Plan.Scan);
    check "large relation second" true (Symbol.equal (pred_of s2) big);
    check "large relation probed on the bound position" true
      (s2.Plan.probe = [ 0 ]);
    check "large maintained relation uses the index" true
      (s2.Plan.strategy = Plan.Index);
    check "delta joined last" true (Symbol.equal (pred_of s3) delta);
    check "delta probed on its bound position" true (s3.Plan.probe = [ 0 ]);
    check "transient delta gets a transient hash join" true
      (s3.Plan.strategy = Plan.Hash)
  | _ -> Alcotest.fail "expected three steps");
  let trivial = Plan.trivial ~nvars:3 atoms in
  check "trivial plan keeps written order" true (not trivial.Plan.reordered);
  match trivial.Plan.steps with
  | s :: _ ->
    check "trivial plan starts with the written first atom" true
      (match s.Plan.atom with
      | Plan.CPred (pr, _) -> Symbol.equal pr big
      | _ -> false)
  | [] -> Alcotest.fail "trivial plan has no steps"

let test_plan_cache_reuse () =
  let cache = Eval.plan_cache () in
  let a = abox_of_facts [ `B ("R", "c1", "c2"); `B ("R", "c2", "c1") ] in
  let r1 = Eval.run ~plan:cache example1 a in
  let r2 = Eval.run ~plan:cache example1 a in
  Alcotest.(check (list (list string)))
    "cached run agrees"
    (show_tuples r1.Eval.answers)
    (show_tuples r2.Eval.answers);
  (* grow the store past the 2x replan threshold: the next run must replan
     against the new sizes and still answer correctly *)
  let big =
    abox_of_facts
      (List.init 6 (fun i ->
           let c j = Printf.sprintf "d%02d" j in
           `B ("R", c i, c (i + 1))))
  in
  let r3 = Eval.run ~plan:cache example1 big in
  Alcotest.(check (list (list string)))
    "replanned run answers the new store"
    (show_tuples (Eval.answers example1 big))
    (show_tuples r3.Eval.answers)

(* The relation storage as the engine drives it, on rows of symbol ids. *)
let ids row = Array.of_list (List.map (fun (c : Symbol.t) -> (c :> int)) row)
let rel_add r row = Relation.add r (ids row) 0

let rel_lookup r positions key =
  List.map
    (fun id -> Array.to_list (Array.sub r.Relation.data (id * r.arity) r.arity))
    (Relation.lookup r (Array.of_list positions) (ids key))

(* The relation-internals contract behind evaluator rounds: one full-scan
   index build per position list (later additions maintain it in place and
   lookups reuse it). *)
let test_relation_index_reuse () =
  let s = Symbol.intern in
  let r = Relation.create 2 in
  check "first add" true (rel_add r [ s "a"; s "b" ]);
  check "second add" true (rel_add r [ s "a"; s "c" ]);
  check "duplicate add rejected" false (rel_add r [ s "a"; s "b" ]);
  check_int "no index before first lookup" 0 r.index_builds;
  let m1 = rel_lookup r [ 0 ] [ s "a" ] in
  check_int "lookup matches" 2 (List.length m1);
  check_int "one full-scan build" 1 r.index_builds;
  ignore (rel_lookup r [ 0 ] [ s "a" ]);
  ignore (rel_lookup r [ 0 ] [ s "z" ]);
  check_int "repeat lookups reuse the index" 1 r.index_builds;
  (* an addition after the build is visible without a rescan *)
  check "post-index add" true (rel_add r [ s "a"; s "d" ]);
  check_int "incremental maintenance, no rebuild" 1 r.index_builds;
  check_int "maintained index sees the new tuple" 3
    (List.length (rel_lookup r [ 0 ] [ s "a" ]));
  (* a second position list is one more build, not a rebuild of the first;
     the whole row is the row set's, and builds nothing *)
  ignore (rel_lookup r [ 1 ] [ s "b" ]);
  check_int "second position list builds once more" 2 r.index_builds;
  check_int "whole-row lookup" 1 (List.length (rel_lookup r [ 0; 1 ] [ s "a"; s "d" ]));
  check_int "whole-row lookup builds nothing" 2 r.index_builds

(* The flat relation storage against a reference set model, per arity
   0–3: thousands of adds with duplicates and removals of present and
   absent rows (enough for several row-set and index resizes, and for
   chains that lose their head, a middle row and their last row), indexes
   built both before and after the writes, lookups on every position
   subset, one build per position list short of the whole row (which the
   row set answers), and a sorted, duplicate-free tuple view.  Arity 0 is
   the boolean goals' relation. *)
let test_relation_model () =
  let ints = List.map (fun (c : Symbol.t) -> (c :> int)) in
  List.iter
    (fun arity ->
      let rng = Random.State.make [| 2017; arity |] in
      (* a value pool small enough that random rows repeat often *)
      let width = [| 1; 3000; 60; 14 |].(arity) in
      let pool =
        Array.init width (fun i -> Symbol.intern (Printf.sprintf "m%d" i))
      in
      let random_row () =
        List.init arity (fun _ -> pool.(Random.State.int rng width))
      in
      let r = Relation.create arity in
      let model = Hashtbl.create 64 in
      let rows () = Hashtbl.fold (fun row () acc -> row :: acc) model [] in
      let subsets =
        List.init (1 lsl arity) (fun bits ->
            List.filter
              (fun i -> bits land (1 lsl i) <> 0)
              (List.init arity Fun.id))
      in
      let check_lookups positions =
        let project row = List.map (List.nth row) positions in
        (* random keys (mostly misses) and keys of stored rows (hits) *)
        let keys =
          List.init 8 (fun _ -> project (random_row ()))
          @ List.filter_map
              (fun row ->
                if Random.State.int rng 50 = 0 then Some (project row) else None)
              (rows ())
        in
        List.iter
          (fun key ->
            let want = List.filter (fun row -> project row = key) (rows ()) in
            Alcotest.(check (list (list int)))
              (Printf.sprintf "arity %d lookup on [%s]" arity
                 (String.concat "," (List.map string_of_int positions)))
              (List.sort compare (List.map ints want))
              (List.sort compare (rel_lookup r positions key)))
          keys
      in
      let check_size what =
        check_int
          (Printf.sprintf "arity %d size after %s" arity what)
          (Hashtbl.length model) r.size
      in
      let early, late =
        List.partition (fun s -> List.length s mod 2 = 0) subsets
      in
      List.iter check_lookups early;
      for phase = 1 to 3 do
        for _ = 1 to 2000 do
          let row = random_row () in
          let fresh = not (Hashtbl.mem model row) in
          Hashtbl.replace model row ();
          check
            (Printf.sprintf "arity %d add reports novelty" arity)
            fresh (rel_add r row)
        done;
        check_size (Printf.sprintf "adds of phase %d" phase);
        List.iter check_lookups early;
        (* half the removals target stored rows, half random ones *)
        let stored = Array.of_list (rows ()) in
        for _ = 1 to 700 do
          let row =
            if Random.State.bool rng && Array.length stored > 0 then
              stored.(Random.State.int rng (Array.length stored))
            else random_row ()
          in
          let present = Hashtbl.mem model row in
          Hashtbl.remove model row;
          check
            (Printf.sprintf "arity %d remove reports presence" arity)
            present
            (Relation.remove r (ids row) 0)
        done;
        check_size (Printf.sprintf "removals of phase %d" phase);
        List.iter check_lookups early
      done;
      List.iter check_lookups late;
      check_int
        (Printf.sprintf "arity %d: one build per position list" arity)
        (List.length
           (List.filter (fun s -> s <> [] && List.length s < arity) subsets))
        r.index_builds;
      let view = Relation.tuples r in
      check
        (Printf.sprintf "arity %d view sorted and duplicate-free" arity)
        true
        (view = List.sort_uniq compare view);
      check
        (Printf.sprintf "arity %d view = model" arity)
        true
        (view = List.sort compare (rows ())))
    [ 0; 1; 2; 3 ]

(* A predicate used at two arities is two relations of the ABox, and each
   arity's query reads its own; both survive a checkpoint round trip. *)
let test_predicate_at_two_arities () =
  let a = abox_of_facts [ `U ("A", "a"); `B ("A", "a", "b") ] in
  let goal name arity =
    let args = List.init arity (fun i -> Printf.sprintf "x%d" i) in
    Ndl.make ~goal:(sym name) ~goal_args:args
      [ { Ndl.head = (sym name, List.map v args); body = [ p "A" (List.map v args) ] } ]
  in
  List.iter
    (fun abox ->
      Alcotest.(check (list (list string)))
        "unary A" [ [ "a" ] ] (show_tuples (Eval.answers (goal "GA1" 1) abox));
      Alcotest.(check (list (list string)))
        "binary A" [ [ "a"; "b" ] ] (show_tuples (Eval.answers (goal "GA2" 2) abox)))
    [ a; Abox.deserialize (Abox.serialize a) ];
  check_int "two atoms" 2 (Abox.num_atoms a)

(* [Eval.run] reads the ABox's relations in place and must leave them as
   it found them — no index registered, no row written — on every path:
   planned and naive, sequential and parallel, with probes on one position
   of a binary relation, on every position, and on a unary relation.  The
   second program renames ABox predicates: its goal is an identity
   renaming of a view of R, so the planned engine answers from R's own
   relation, and, when every predicate is materialised, a two-clause
   stratum shares S (its other source, a join, derives nothing) before a
   join probes both through a view. *)
let test_eval_leaves_abox_relations () =
  let n = 40 in
  let c i = Printf.sprintf "c%d" (i mod n) in
  let a =
    abox_of_facts
      (List.concat
         (List.init n (fun i ->
              [ `B ("R", c i, c (i + 1)); `B ("S", c i, c (i + 3)) ]
              @ if i mod 2 = 0 then [ `U ("A", c i) ] else [])))
  in
  let q =
    Ndl.make ~goal:(sym "Gpin") ~goal_args:[ "x" ]
      [
        {
          Ndl.head = (sym "Gpin", [ v "x" ]);
          body =
            [
              p "A" [ v "x" ]; p "R" [ v "x"; v "y" ]; p "S" [ v "y"; v "z" ];
              p "S" [ v "x"; v "w" ]; p "R" [ v "w"; v "z" ]; p "A" [ v "z" ];
            ];
        };
        {
          Ndl.head = (sym "Gpin", [ v "x" ]);
          body = [ p "S" [ v "y"; v "x" ]; p "A" [ v "x" ]; p "R" [ v "z"; v "y" ] ];
        };
      ]
  in
  let state () =
    List.map
      (fun (pred, arity) ->
        let r = Option.get (Abox.relation a (sym pred) ~arity) in
        ( List.map (fun (ix : Relation.index) -> Array.to_list ix.positions) r.indexes,
          r.index_builds,
          r.size ))
      [ ("R", 2); ("S", 2); ("A", 1) ]
  in
  let renamings =
    Ndl.make ~goal:(sym "Gren") ~goal_args:[ "x"; "y" ]
      [
        { Ndl.head = (sym "Iren", [ v "x"; v "y" ]); body = [ p "R" [ v "x"; v "y" ] ] };
        { Ndl.head = (sym "Gren", [ v "x"; v "y" ]); body = [ p "Iren" [ v "x"; v "y" ] ] };
        { Ndl.head = (sym "Sren", [ v "x"; v "y" ]); body = [ p "S" [ v "x"; v "y" ] ] };
        { Ndl.head = (sym "Sren", [ v "x"; v "y" ]); body = [ p "Eren" [ v "x"; v "y" ] ] };
        {
          Ndl.head = (sym "Eren", [ v "x"; v "y" ]);
          body = [ p "S" [ v "x"; v "y" ]; p "R" [ v "y"; v "x" ] ];
        };
        {
          Ndl.head = (sym "Jren", [ v "x" ]);
          body = [ p "Sren" [ v "x"; v "y" ]; p "Iren" [ v "y"; v "z" ]; p "A" [ v "z" ] ];
        };
      ]
  in
  let before = state () in
  List.iter
    (fun q ->
      let planned = Eval.run q a in
      let expected = show_tuples planned.Eval.answers in
      let naive = Eval.run ~naive:true q a in
      Alcotest.(check (list (list string)))
        "naive agrees" expected (show_tuples naive.Eval.answers);
      check_int "naive counts the same tuples" naive.Eval.generated_tuples
        planned.Eval.generated_tuples;
      (* forcing and reading the relations handed out, shared ones
         included, changes nothing either *)
      Symbol.Map.iter
        (fun _ r -> ignore (Relation.tuples r))
        (Lazy.force planned.Eval.idb_relations);
      check "the query answers" true (expected <> []))
    [ q; renamings ];
  let lines = ref [] in
  let r = Eval.materialise ~explain:(fun l -> lines := l :: !lines) renamings a in
  check_int "the renamed goal holds R" n (List.length r.Eval.answers);
  check "the goal and Sren share the ABox's R and S" true
    (List.mem "Gren(x,y) <- R(x,y)  shared" !lines
    && List.mem "Sren(x,y) <- S(x,y)  shared" !lines);
  check "index lists, build counts and sizes untouched" true
    (before = state ());
  check "binary relations keep exactly [0] and [1]" true
    (match before with
    | (r, 2, _) :: (s, 2, _) :: _ ->
      List.sort compare r = [ [ 0 ]; [ 1 ] ] && List.sort compare s = [ [ 0 ]; [ 1 ] ]
    | _ -> false)

(* [--explain] shows the goal-directed transformation: the clause an empty
   relation kills, the stratum the goal does not reach, and the predicate
   its one consumer probes after a selective prefix, restricted to the
   demand of that prefix ([A] holds one of the chain's ten constants), with
   the rows it ends with.  [Eval.materialise] only drops the dead clause
   and answers the same. *)
let test_explain_demand () =
  let q =
    Ndl.make ~goal:(sym "Gdm") ~goal_args:[ "x"; "z" ]
      [
        {
          Ndl.head = (sym "Qdm", [ v "x"; v "z" ]);
          body = [ p "R" [ v "x"; v "y" ]; p "R" [ v "y"; v "z" ] ];
        };
        { Ndl.head = (sym "Gdm", [ v "x"; v "z" ]); body = [ p "A" [ v "x" ]; p "Qdm" [ v "x"; v "z" ] ] };
        { Ndl.head = (sym "Gdm", [ v "x"; v "z" ]); body = [ p "S" [ v "x"; v "z" ] ] };
        { Ndl.head = (sym "Udm", [ v "x" ]); body = [ p "R" [ v "x"; v "y" ] ] };
      ]
  in
  let a =
    abox_of_facts
      (`U ("A", "c0")
      :: List.init 9 (fun i -> `B ("R", Printf.sprintf "c%d" i, Printf.sprintf "c%d" (i + 1))))
  in
  let explain run =
    let lines = ref [] in
    let r = run ~explain:(fun l -> lines := l :: !lines) in
    let shown =
      List.filter
        (fun l ->
          List.exists
            (fun prefix -> String.starts_with ~prefix l)
            [ "drop "; "skip "; "restrict" ])
        (List.rev !lines)
    in
    (r, shown)
  in
  let r, lines = explain (fun ~explain -> Eval.run ~explain q a) in
  Alcotest.(check (list string))
    "the transformation"
    [
      "drop Gdm(x,z) <- S(x,z)  empty S(x,z)";
      "skip Udm";
      "restrict Qdm on [0] by magic:Qdm  demand~1 of 9 keys  full~9";
      "restricted Qdm rows=1";
    ]
    lines;
  Alcotest.(check (list (list string)))
    "answers" [ [ "c0"; "c2" ] ] (show_tuples r.Eval.answers);
  (* Gdm = 1, Qdm = 1, magic:Qdm = 1 *)
  check_int "generated tuples" 3 r.Eval.generated_tuples;
  let m, lines = explain (fun ~explain -> Eval.materialise ~explain q a) in
  Alcotest.(check (list string))
    "materialised: the dead clause only"
    [ "drop Gdm(x,z) <- S(x,z)  empty S(x,z)" ]
    lines;
  Alcotest.(check (list (list string)))
    "the same answers" (show_tuples r.Eval.answers) (show_tuples m.Eval.answers);
  (* Gdm = 1, Qdm = 8, Udm = 9 *)
  check_int "materialised generated tuples" 18 m.Eval.generated_tuples

(* Renamings answered in place: [--explain] names each view and shared
   stratum, the clause that reads a view reads its source with the columns
   permuted, and the run answers and counts what the copying reference
   engine does.  Every predicate is materialised, so the goal's demand
   restricts nothing; [R*]'s second source is a join that derives nothing
   over the first instance (a clause over an empty EDB relation would be
   dropped, leaving [R*] a view). *)
let test_renamings_in_place () =
  let q =
    Ndl.make ~goal:(sym "Gvw") ~goal_args:[ "x" ]
      [
        { Ndl.head = (sym "R*", [ v "x"; v "y" ]); body = [ p "R" [ v "x"; v "y" ] ] };
        { Ndl.head = (sym "R*", [ v "x"; v "y" ]); body = [ p "Pvw" [ v "x"; v "y" ] ] };
        {
          Ndl.head = (sym "Pvw", [ v "x"; v "y" ]);
          body = [ p "R" [ v "x"; v "y" ]; p "R" [ v "y"; v "x" ] ];
        };
        {
          Ndl.head = (sym "Vvw", [ v "x1"; v "x0" ]);
          body = [ p "R*" [ v "x0"; v "x1" ] ];
        };
        { Ndl.head = (sym "Gvw", [ v "x" ]); body = [ p "Vvw" [ v "x"; v "y" ]; p "A" [ v "y" ] ] };
      ]
  in
  let a =
    abox_of_facts
      [ `B ("R", "v1", "v2"); `B ("R", "v2", "v3"); `B ("R", "v3", "v1"); `U ("A", "v1") ]
  in
  let explain ?naive a =
    let lines = ref [] in
    let r = Eval.materialise ?naive ~explain:(fun l -> lines := l :: !lines) q a in
    (r, List.rev !lines)
  in
  let planned, lines = explain a in
  (match lines with
  | [ _pvw; shared; view; goal ] ->
    check_str "the one live source is shared" "R*(x,y) <- R(x,y)  shared" shared;
    check_str "the view" "Vvw(x1,x0) <- R*(x0,x1)  view" view;
    check "the goal reads the view's source, permuted" true
      (String.starts_with ~prefix:"Gvw(x) <- " goal
      && contains goal "R*(y,x)" && not (contains goal "Vvw"))
  | lines -> Alcotest.fail ("unexpected explain lines: " ^ String.concat " | " lines));
  let naive, naive_lines = explain ~naive:true a in
  check "the reference engine copies every renaming" true
    (List.for_all (fun l -> not (contains l "  view" || contains l "  shared")) naive_lines);
  Alcotest.(check (list (list string)))
    "answers" [ [ "v2" ] ] (show_tuples planned.Eval.answers);
  Alcotest.(check (list (list string)))
    "naive answers" (show_tuples naive.Eval.answers) (show_tuples planned.Eval.answers);
  (* Pvw = 0, R* = 3, Vvw = 3, Gvw = 1 *)
  check_int "generated tuples" 7 planned.Eval.generated_tuples;
  check_int "naive generated tuples" 7 naive.Eval.generated_tuples;
  let vw = Symbol.Map.find (sym "Vvw") (Lazy.force planned.Eval.idb_relations) in
  Alcotest.(check (list (list string)))
    "a forced view holds the permuted rows"
    [ [ "v1"; "v3" ]; [ "v2"; "v1" ]; [ "v3"; "v2" ] ]
    (List.sort compare (show_tuples (Relation.tuples vw)));
  let _, c = Obs.collecting (fun () -> Eval.materialise q a) in
  Alcotest.(check (option int))
    "eval.views counts the view and the shared stratum" (Some 2)
    (Obs.Collector.gauge_int c "eval.views");
  (* a second live source means a union: the stratum is copied *)
  let a' = Abox.copy a in
  Abox.add_binary a' (sym "R") (sym "v1") (sym "v1");
  let r, lines = explain a' in
  check "two live sources: no sharing" true
    (not (List.exists (fun l -> contains l "  shared") lines));
  (* Pvw = 1, R* = 4, Vvw = 4, Gvw = 2 *)
  check_int "generated tuples with both sources" 11 r.Eval.generated_tuples;
  check_int "naive agrees" 11
    (Eval.materialise ~naive:true q a').Eval.generated_tuples

(* A derived relation is created at the size its stratum's plans
   estimate.  A cross product is estimated exactly, so the goal's relation
   ends with the buffer and the row set it was created with: 120 rows of
   3, and 256 slots, the smallest power of two holding 120 rows at load
   1/2.  The naive engine starts at 8 rows and doubles its buffer to 128.
   Under a size cap the allowance left bounds the size: [Hh(x) <- Rh(x,y)]
   is planned at 100 rows and holds one, then [Gh] at 100 and holds one,
   so a cap of 10 sizes [Hh] at 10 rows and [Gh] at the 9 left. *)
let test_planned_capacity () =
  let c i = Printf.sprintf "k%d" i in
  let a =
    abox_of_facts
      (List.init 40 (fun i -> `B ("Rk", c i, c (i + 1)))
      @ List.init 3 (fun i -> `U ("Ak", c (100 + i))))
  in
  let q =
    Ndl.make ~goal:(sym "Gcap") ~goal_args:[ "x"; "y"; "z" ]
      [
        {
          Ndl.head = (sym "Gcap", [ v "x"; v "y"; v "z" ]);
          body = [ p "Rk" [ v "x"; v "y" ]; p "Ak" [ v "z" ] ];
        };
      ]
  in
  let relation ?naive q a name =
    let r = Eval.run ?naive q a in
    Symbol.Map.find (sym name) (Lazy.force r.Eval.idb_relations)
  in
  let g = relation q a "Gcap" in
  check_int "120 rows" 120 g.Relation.size;
  check_int "buffer as created: 120 rows" (120 * 3) (Array.length g.data);
  check_int "row set as created: 256 slots" 256 (Array.length g.rows);
  let gn = relation ~naive:true q a "Gcap" in
  check_int "naive: same rows" 120 gn.size;
  check_int "naive: buffer doubled from 8 rows" (128 * 3) (Array.length gn.data);
  let b =
    abox_of_facts
      (List.init 100 (fun j -> `B ("Rh", "h0", Printf.sprintf "h%d" (j + 1))))
  in
  let q2 =
    Ndl.make ~goal:(sym "Gh") ~goal_args:[ "x" ]
      [
        { Ndl.head = (sym "Hh", [ v "x" ]); body = [ p "Rh" [ v "x"; v "y" ] ] };
        {
          Ndl.head = (sym "Gh", [ v "x" ]);
          body = [ p "Hh" [ v "x" ]; p "Rh" [ v "x"; v "y" ] ];
        };
      ]
  in
  let sizes ?budget () =
    let rels = Lazy.force (Eval.run ?budget q2 b).Eval.idb_relations in
    List.map
      (fun name ->
        let r = Symbol.Map.find (sym name) rels in
        (r.Relation.size, Array.length r.data))
      [ "Hh"; "Gh" ]
  in
  Alcotest.(check (list (pair int int)))
    "unlimited: sized at the estimate" [ (1, 100); (1, 100) ] (sizes ());
  Alcotest.(check (list (pair int int)))
    "--max-size 10: sized at the allowance left" [ (1, 10); (1, 9) ]
    (sizes ~budget:(Obda_runtime.Budget.create ~max_size:10 ()) ())

(* The estimate is a hint and can be far too high; a relation is never
   allocated beyond [Relation.max_capacity] rows for it.  [S(z, kz)] probes
   on a constant no row holds, but [S]'s 1,500 rows share two values
   there, so the step is planned at 750 matches and the body at
   750 × 1,500 = 1,125,000, past the 2^20-row ceiling and far below
   |ind(A)|^3; the goal's relation holds no row. *)
let test_capacity_ceiling () =
  let a =
    abox_of_facts
      (List.init 1500 (fun i ->
           `B ("Ro", Printf.sprintf "r%d" i, Printf.sprintf "s%d" i))
      @ List.init 1500 (fun j ->
            `B ("So", Printf.sprintf "t%d" j, Printf.sprintf "k%d" (j mod 2))))
  in
  let q =
    Ndl.make ~goal:(sym "Gover") ~goal_args:[ "x"; "y"; "z" ]
      [
        {
          Ndl.head = (sym "Gover", [ v "x"; v "y"; v "z" ]);
          body = [ p "Ro" [ v "x"; v "y" ]; p "So" [ v "z"; Ndl.Cst (sym "kz") ] ];
        };
      ]
  in
  let r = Eval.run q a in
  let g = Symbol.Map.find (sym "Gover") (Lazy.force r.Eval.idb_relations) in
  check_int "no rows" 0 g.Relation.size;
  check_int "buffer at the ceiling" (3 * Relation.max_capacity) (Array.length g.data);
  check_int "row set at the ceiling" (2 * Relation.max_capacity) (Array.length g.rows)

let suites =
  [
    ( "ndl",
      [
        Alcotest.test_case "example 1 analysis" `Quick test_example1_analysis;
        Alcotest.test_case "example 1 evaluation" `Quick test_example1_eval;
        Alcotest.test_case "recursion detection and fixpoint" `Quick
          test_recursive_fixpoint;
        Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
        Alcotest.test_case "eval.derived_facts counts each tuple once" `Quick
          test_derived_facts_counter;
        Alcotest.test_case "planner reorders pessimal clause" `Quick
          test_planner_reorders;
        Alcotest.test_case "plan cost model (pinned)" `Quick
          test_plan_cost_model;
        Alcotest.test_case "plan cache reuse and replan" `Quick
          test_plan_cache_reuse;
        Alcotest.test_case "explain shows the goal-directed transformation" `Quick
          test_explain_demand;
        Alcotest.test_case "equality and domain atoms" `Quick
          test_eval_equality_and_dom;
        Alcotest.test_case "constants" `Quick test_eval_constants;
        Alcotest.test_case "boolean goal" `Quick test_eval_boolean_goal;
        Alcotest.test_case "generated tuples" `Quick test_generated_tuples;
        Alcotest.test_case "weight function" `Quick test_weight_and_skinny_depth;
        Alcotest.test_case "skinny transform" `Quick
          test_skinny_transform_equivalence;
        Alcotest.test_case "prune" `Quick test_prune;
        Alcotest.test_case "inline (Tw*)" `Quick test_inline;
        Alcotest.test_case "star (generic)" `Quick test_star_generic;
        Alcotest.test_case "star (linear, Lemma 3)" `Quick test_star_linear;
        Alcotest.test_case "repeated variables in one atom" `Quick
          test_repeated_vars_in_atom;
        Alcotest.test_case "constants at indexed positions" `Quick
          test_constants_at_indexed_positions;
        Alcotest.test_case "unbound-unbound Eq domain sweep" `Quick
          test_unbound_unbound_eq_sweep;
        Alcotest.test_case "relation index reuse" `Quick
          test_relation_index_reuse;
        Alcotest.test_case "eval leaves the ABox's relations untouched" `Quick
          test_eval_leaves_abox_relations;
        Alcotest.test_case "renamings answered in place" `Quick
          test_renamings_in_place;
        Alcotest.test_case "a predicate at two arities" `Quick
          test_predicate_at_two_arities;
        Alcotest.test_case "relation storage vs set model" `Quick
          test_relation_model;
        Alcotest.test_case "relations created at their planned size" `Quick
          test_planned_capacity;
        Alcotest.test_case "an over-estimated relation stops at the ceiling"
          `Quick test_capacity_ceiling;
      ] );
  ]
