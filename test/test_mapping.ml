(* GAV mappings: materialisation vs unfolding (reduction (1) of the paper),
   on hand-written and randomised sources. *)

open Obda_syntax
open Obda_ontology
open Obda_mapping
module Omq = Obda_rewriting.Omq
module Ndl = Obda_ndl.Ndl
open Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let v x = Ndl.Var x
let src name ts = Ndl.Pred (sym name, ts)

let test_source_basics () =
  let d = Source.create () in
  Source.add_row d "t" [ "a"; "b"; "c" ];
  Source.add_row d "t" [ "a"; "b"; "c" ];
  Source.add_row d "t" [ "d"; "e"; "f" ];
  Source.add_row d "u" [ "a" ];
  check_int "arity" 3 (Option.get (Source.arity d (sym "t")));
  check_int "tuples kept (with duplicates)" 3
    (List.length (Source.tuples d (sym "t")));
  check_int "constants" 6 (List.length (Source.constants d));
  check "arity mismatch rejected" true
    (try
       Source.add_row d "t" [ "x" ];
       false
     with Invalid_argument _ -> true)

let test_rule_validation () =
  check "head var must occur in body" true
    (try
       ignore (Mapping.rule "A" [ "x" ] [ src "t" [ v "y" ] ]);
       false
     with Invalid_argument _ -> true);
  check "ternary head rejected" true
    (try
       ignore
         (Mapping.rule "A" [ "x"; "y"; "z" ] [ src "t" [ v "x"; v "y"; v "z" ] ]);
       false
     with Invalid_argument _ -> true)

let test_materialise () =
  let d = Source.create () in
  Source.add_row d "emp" [ "e1"; "research" ];
  Source.add_row d "emp" [ "e2"; "ops" ];
  Source.add_row d "mgr" [ "e1"; "e2" ];
  let m =
    [
      Mapping.rule "Employee" [ "x" ] [ src "emp" [ v "x"; v "d" ] ];
      Mapping.rule "managedBy" [ "x"; "y" ] [ src "mgr" [ v "x"; v "y" ] ];
      (* a join in the body: research employees with a manager *)
      Mapping.rule "Researcher" [ "x" ]
        [ src "emp" [ v "x"; Ndl.Cst (sym "research") ]; src "mgr" [ v "x"; v "y" ] ];
    ]
  in
  let md = Mapping.materialise m d in
  check "Employee(e1)" true (Obda_data.Abox.mem_unary md (sym "Employee") (sym "e1"));
  check "managedBy(e1,e2)" true
    (Obda_data.Abox.mem_binary md (sym "managedBy") (sym "e1") (sym "e2"));
  check "Researcher(e1)" true
    (Obda_data.Abox.mem_unary md (sym "Researcher") (sym "e1"));
  check "not Researcher(e2)" false
    (Obda_data.Abox.mem_unary md (sym "Researcher") (sym "e2"))

(* A mapping atom whose arity differs from its source relation's, in either
   direction, is a parse error; so is an external row of the wrong width
   reaching the evaluator past the mapping. *)
let test_arity_clash () =
  let is_parse_error f =
    match f () with
    | _ -> false
    | exception Obda_runtime.Error.Obda_error (Obda_runtime.Error.Parse_error _) ->
      true
  in
  let d = Source.create () in
  Source.add_row d "emp" [ "alice" ];
  let wide = [ Mapping.rule "Employee" [ "x" ] [ src "emp" [ v "x"; v "n" ] ] ] in
  check "wide atom over a narrow relation" true
    (is_parse_error (fun () -> Mapping.materialise wide d));
  let d2 = Source.create () in
  Source.add_row d2 "emp" [ "alice"; "ada" ];
  let narrow = [ Mapping.rule "Employee" [ "x" ] [ src "emp" [ v "x" ] ] ] in
  check "narrow atom over a wide relation" true
    (is_parse_error (fun () -> Mapping.materialise narrow d2));
  let q =
    Ndl.make ~goal:(sym "Employee") ~goal_args:[ "x" ]
      [ { Ndl.head = (sym "Employee", [ v "x" ]); body = [ src "emp" [ v "x"; v "n" ] ] } ]
  in
  check "evaluator rejects a short external row" true
    (is_parse_error (fun () ->
         Obda_ndl.Eval.run ~edb:(Source.edb_provider d) q (Obda_data.Abox.create ())))

(* random end-to-end: materialise-then-answer = unfold-then-evaluate = chase
   over M(D) *)
let pipeline_agreement =
  QCheck.Test.make ~count:30 ~name:"materialise = unfold = chase"
    QCheck.(pair (int_bound 100_000) (int_range 1 4))
    (fun (seed, qlen) ->
      let rng = Random.State.make [| seed; 55 |] in
      let t = example11_tbox () in
      (* random 3-column source; map columns into R/S/P edges and markers *)
      let d = Source.create () in
      let const i = Printf.sprintf "k%d" i in
      for _ = 1 to 12 do
        Source.add_row d "tbl"
          [
            const (Random.State.int rng 5);
            const (Random.State.int rng 5);
            const (Random.State.int rng 3);
          ]
      done;
      let m =
        [
          Mapping.rule "R" [ "x"; "y" ] [ src "tbl" [ v "x"; v "y"; v "z" ] ];
          Mapping.rule "S" [ "y"; "z" ] [ src "tbl" [ v "x"; v "y"; v "z" ] ];
          Mapping.rule
            (Symbol.name (Tbox.exists_name t (role "P-")))
            [ "x" ]
            [ src "tbl" [ v "x"; v "y"; Ndl.Cst (sym (const 0)) ] ];
        ]
      in
      let letters =
        List.init qlen (fun i -> if (seed + i) mod 3 = 0 then "S" else "R")
      in
      let q = word_cq letters in
      let omq = Omq.make t q in
      let rewriting = Omq.rewrite Omq.Tw omq in
      let md = Mapping.materialise m d in
      let via_mat = Omq.answer omq md in
      let via_unfold = Mapping.answers_virtual m rewriting d in
      let via_chase = Omq.answer_certain omq md in
      via_mat = via_unfold && via_mat = via_chase)

let test_unfold_structure () =
  let t = example11_tbox () in
  let q = word_cq [ "R"; "S" ] in
  let rewriting = Omq.rewrite Omq.Tw (Omq.make t q) in
  let m = [ Mapping.rule "R" [ "x"; "y" ] [ src "tbl" [ v "x"; v "y" ] ] ] in
  let unfolded = Mapping.unfold m rewriting in
  check "still nonrecursive" true (Ndl.is_nonrecursive unfolded);
  check_int "one clause added" (Ndl.num_clauses rewriting + 1)
    (Ndl.num_clauses unfolded);
  check "R is now intensional" true
    (Symbol.Set.mem (sym "R") (Ndl.idb_preds unfolded))

let suites =
  [
    ( "mapping",
      [
        Alcotest.test_case "source basics" `Quick test_source_basics;
        Alcotest.test_case "rule validation" `Quick test_rule_validation;
        Alcotest.test_case "materialisation" `Quick test_materialise;
        Alcotest.test_case "source arity clashes" `Quick test_arity_clash;
        QCheck_alcotest.to_alcotest pipeline_agreement;
        Alcotest.test_case "unfolding structure" `Quick test_unfold_structure;
      ] );
  ]
