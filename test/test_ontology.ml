open Obda_syntax
open Obda_ontology
open Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let t11 = lazy (example11_tbox ())

let test_roles () =
  let t = Lazy.force t11 in
  check_int "R_T has 6 roles (3 predicates and their inverses)" 6
    (List.length (Tbox.roles t))

let test_role_hierarchy () =
  let t = Lazy.force t11 in
  check "P ⊑ S" true (Tbox.sub_role t ~sub:(role "P") ~sup:(role "S"));
  check "P ⊑ R⁻" true (Tbox.sub_role t ~sub:(role "P") ~sup:(role "R-"));
  check "P⁻ ⊑ S⁻ (inverse closure)" true
    (Tbox.sub_role t ~sub:(role "P-") ~sup:(role "S-"));
  check "P⁻ ⊑ R" true (Tbox.sub_role t ~sub:(role "P-") ~sup:(role "R"));
  check "S ⊄ P" false (Tbox.sub_role t ~sub:(role "S") ~sup:(role "P"));
  check "R ⊄ S" false (Tbox.sub_role t ~sub:(role "R") ~sup:(role "S"))

let test_concept_hierarchy () =
  let t = Lazy.force t11 in
  check "∃P ⊑ ∃S" true
    (Tbox.subsumes t ~sub:(Concept.Exists (role "P"))
       ~sup:(Concept.Exists (role "S")));
  check "∃P ⊑ ∃R⁻" true
    (Tbox.subsumes t ~sub:(Concept.Exists (role "P"))
       ~sup:(Concept.Exists (role "R-")));
  check "A_P ↔ ∃P (normalisation)" true
    (Tbox.subsumes t
       ~sub:(Concept.Name (Tbox.exists_name t (role "P")))
       ~sup:(Concept.Exists (role "P"))
    && Tbox.subsumes t
         ~sub:(Concept.Exists (role "P"))
         ~sup:(Concept.Name (Tbox.exists_name t (role "P"))));
  check "everything ⊑ ⊤" true
    (Tbox.subsumes t ~sub:(Concept.Exists (role "R")) ~sup:Concept.Top)

let test_depth_example11 () =
  let t = Lazy.force t11 in
  (match Tbox.depth t with
  | Tbox.Finite 1 -> ()
  | d -> Alcotest.failf "expected depth 1, got %a" Tbox.pp_depth d);
  (* every single non-reflexive role is a word; nothing can follow *)
  check_int "6 words of length 1" 6 (List.length (Tbox.words_up_to t 3));
  List.iter
    (fun r ->
      List.iter
        (fun r' -> check "no followers" false (Tbox.can_follow t r r'))
        (Tbox.roles t))
    (Tbox.roles t)

let test_depth_two () =
  (* A ⊑ ∃P, ∃P⁻ ⊑ ∃S, S cannot be extended: depth 2 *)
  let t =
    Tbox.make
      [
        Tbox.Concept_incl (Concept.Name (sym "A"), Concept.Exists (role "P"));
        Tbox.Concept_incl
          (Concept.Exists (role "P-"), Concept.Exists (role "S"));
      ]
  in
  match Tbox.depth t with
  | Tbox.Finite 2 -> ()
  | d -> Alcotest.failf "expected depth 2, got %a" Tbox.pp_depth d

let test_depth_infinite () =
  (* ∃P⁻ ⊑ ∃P generates an infinite chain *)
  let t =
    Tbox.make
      [
        Tbox.Concept_incl (Concept.Exists (role "P-"), Concept.Exists (role "P"));
      ]
  in
  check "infinite depth" true (Tbox.depth t = Tbox.Infinite)

let test_depth_not_infinite_inverse_collapse () =
  (* ∃P⁻ ⊑ ∃P together with P ⊑ P⁻ means the chain folds back: the
     follower condition T ⊭ ρ(x,y) → ρ'(y,x) blocks the cycle *)
  let t =
    Tbox.make
      [
        Tbox.Concept_incl (Concept.Exists (role "P-"), Concept.Exists (role "P"));
        Tbox.Role_incl (role "P", role "P-");
      ]
  in
  check "depth finite when the successor folds back" true
    (match Tbox.depth t with Tbox.Finite _ -> true | Tbox.Infinite -> false)

let test_reflexivity () =
  let t =
    Tbox.make
      [ Tbox.Reflexive (role "R"); Tbox.Role_incl (role "R", role "S") ]
  in
  check "R reflexive" true (Tbox.reflexive t (role "R"));
  check "S reflexive (inherited)" true (Tbox.reflexive t (role "S"));
  check "R⁻ reflexive" true (Tbox.reflexive t (role "R-"));
  check "⊤ ⊑ ∃S" true
    (Tbox.subsumes t ~sub:Concept.Top ~sup:(Concept.Exists (role "S")));
  (* reflexive roles cannot start witness words *)
  check "refl role cannot start a word" false (Tbox.can_start t (role "R"));
  check "depth 0 (all roles reflexive)" true (Tbox.depth t = Tbox.Finite 0)

let test_null_labels () =
  let t = Lazy.force t11 in
  (* the null a·P⁻ satisfies A_{P} ... i.e. ∃y P(x,y)?  The null w·P⁻ has an
     incoming P⁻, so it satisfies ∃P: null_satisfies P⁻ A_P *)
  check "w·P⁻ satisfies A_P" true
    (Tbox.null_satisfies t (role "P-") (Tbox.exists_name t (role "P")));
  check "w·P satisfies A_{P⁻}" true
    (Tbox.null_satisfies t (role "P") (Tbox.exists_name t (role "P-")));
  check "edge P satisfies S" true (Tbox.edge_satisfies t (role "P") (role "S"));
  check "edge P satisfies R⁻" true
    (Tbox.edge_satisfies t (role "P") (role "R-"))

let test_declared_depth_zero () =
  let t =
    Tbox.make
      [ Tbox.Concept_incl (Concept.Name (sym "A"), Concept.Name (sym "B")) ]
  in
  check "declared depth zero" true (Tbox.declared_depth_zero t);
  (* Example 11 has no ∃ on any right-hand side, so it is "depth 0" in the
     declared sense, yet its W_T has words of length 1 via the normalisation
     names — exactly the situation of the paper's footnote 2. *)
  check "example 11 declared depth zero" true
    (Tbox.declared_depth_zero (Lazy.force t11));
  check "example 11 W_T depth 1" true
    (Tbox.depth (Lazy.force t11) = Tbox.Finite 1)

let test_bottom () =
  let t =
    Tbox.make
      [
        Tbox.Concept_disj (Concept.Name (sym "A"), Concept.Name (sym "B"));
        Tbox.Irreflexive (role "P");
      ]
  in
  check "has bottom" true (Tbox.has_bottom t);
  check "no bottom in example 11" false (Tbox.has_bottom (Lazy.force t11))

(* Names are read without the interner's lock while another domain
   interns: one domain interns fresh names, enough to outgrow the name
   array several times, while the other names ids interned before it
   started, and then the ones the first domain returned.  An id never
   interned raises [Not_found]. *)
let test_symbol_names_across_domains () =
  let old =
    Array.init 2000 (fun i -> Symbol.intern (Printf.sprintf "sym-old-%d" i))
  in
  let fresh_count = 3 * Symbol.count () + 5000 in
  let finished = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let ids =
          Array.init fresh_count (fun i ->
              if i mod 2 = 0 then Symbol.intern (Printf.sprintf "sym-new-%d" i)
              else Symbol.fresh "sym-fresh")
        in
        Atomic.set finished true;
        ids)
  in
  let mismatches = ref 0 and rounds = ref 0 in
  while !rounds = 0 || not (Atomic.get finished) do
    incr rounds;
    Array.iteri
      (fun i s ->
        if Symbol.name s <> Printf.sprintf "sym-old-%d" i then incr mismatches)
      old
  done;
  let fresh = Domain.join writer in
  check_int "old names read while interning" 0 !mismatches;
  Array.iteri
    (fun i s ->
      let name = Symbol.name s in
      if i mod 2 = 0 then
        Alcotest.(check string) "interned name" (Printf.sprintf "sym-new-%d" i) name
      else check "fresh name" true (String.starts_with ~prefix:"sym-fresh#" name);
      check "name interns back to its id" true (Symbol.equal (Symbol.intern name) s))
    fresh;
  let unknown = Symbol.unsafe_of_int (Symbol.count () + 7) in
  check "an unknown id raises Not_found" true
    (match Symbol.name unknown with _ -> false | exception Not_found -> true);
  check "a negative id raises Not_found" true
    (match Symbol.name (Symbol.unsafe_of_int (-1)) with
    | _ -> false
    | exception Not_found -> true)

let suites =
  [
    ( "ontology",
      [
        Alcotest.test_case "roles" `Quick test_roles;
        Alcotest.test_case "role hierarchy" `Quick test_role_hierarchy;
        Alcotest.test_case "concept hierarchy" `Quick test_concept_hierarchy;
        Alcotest.test_case "depth of example 11" `Quick test_depth_example11;
        Alcotest.test_case "depth two" `Quick test_depth_two;
        Alcotest.test_case "infinite depth" `Quick test_depth_infinite;
        Alcotest.test_case "inverse collapse" `Quick
          test_depth_not_infinite_inverse_collapse;
        Alcotest.test_case "reflexivity" `Quick test_reflexivity;
        Alcotest.test_case "null labels" `Quick test_null_labels;
        Alcotest.test_case "declared depth zero" `Quick
          test_declared_depth_zero;
        Alcotest.test_case "bottom" `Quick test_bottom;
        Alcotest.test_case "symbol names across domains" `Quick
          test_symbol_names_across_domains;
      ] );
  ]
