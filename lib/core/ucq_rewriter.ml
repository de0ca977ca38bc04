open Obda_syntax
open Obda_ontology
open Obda_cq
module Ndl = Obda_ndl.Ndl
module Budget = Obda_runtime.Budget
module Error = Obda_runtime.Error
module Fault = Obda_runtime.Fault
module Obs = Obda_obs.Obs

(* Working representation: the head argument list (answer variables, with
   possible repetitions after distinguished-variable unification) and the
   atom list. *)
type wcq = { answer : Cq.var list; atoms : Cq.atom list }

let occurrences atoms z =
  List.fold_left
    (fun acc atom ->
      List.fold_left
        (fun acc v -> if v = z then acc + 1 else acc)
        acc
        (match atom with
        | Cq.Unary (_, v) -> [ v ]
        | Cq.Binary (_, y, v) -> [ y; v ]))
    0 atoms

let unbound w z = (not (List.mem z w.answer)) && occurrences w.atoms z = 1

let role_atom rho y z =
  if Role.is_inverse rho then Cq.Binary (rho.Role.base, z, y)
  else Cq.Binary (rho.Role.base, y, z)

(* canonical renaming of existential variables *)
let canonicalize w =
  let pass atoms =
    let mapping = Hashtbl.create 8 in
    let next = ref 0 in
    let rename v =
      if List.mem v w.answer then v
      else
        match Hashtbl.find_opt mapping v with
        | Some v' -> v'
        | None ->
          let v' = Printf.sprintf "_e%d" !next in
          incr next;
          Hashtbl.add mapping v v';
          v'
    in
    let atoms =
      List.map
        (function
          | Cq.Unary (a, z) -> Cq.Unary (a, rename z)
          | Cq.Binary (p, y, z) -> Cq.Binary (p, rename y, rename z))
        atoms
    in
    List.sort_uniq Cq.compare_atom atoms
  in
  (* two passes make the renaming stable for almost all shapes *)
  { w with atoms = pass (pass (List.sort_uniq Cq.compare_atom w.atoms)) }

let substitute w v v' =
  let s u = if u = v then v' else u in
  {
    answer = List.map s w.answer;
    atoms =
      List.sort_uniq Cq.compare_atom
        (List.map
           (function
             | Cq.Unary (a, z) -> Cq.Unary (a, s z)
             | Cq.Binary (p, y, z) -> Cq.Binary (p, s y, s z))
           w.atoms);
  }

(* one-step rewritings of a single atom through the (saturated) ontology *)
let atom_rewritings tbox counter w atom =
  let fresh () =
    incr counter;
    Printf.sprintf "_w%d" !counter
  in
  let others = List.filter (fun a -> Cq.compare_atom a atom <> 0) w.atoms in
  let with_atoms atoms = { w with atoms = atoms @ others } in
  match atom with
  | Cq.Unary (a, z) ->
    List.filter_map
      (fun sub ->
        match sub with
        | Concept.Name a' when not (Symbol.equal a' a) ->
          Some (with_atoms [ Cq.Unary (a', z) ])
        | Concept.Name _ | Concept.Top -> None
        | Concept.Exists rho -> Some (with_atoms [ role_atom rho z (fresh ()) ]))
      (Tbox.subconcepts_of tbox (Concept.Name a))
  | Cq.Binary (p, y, z) ->
    let rho = Role.make p in
    let by_role_inclusion =
      List.filter_map
        (fun sigma ->
          if Role.equal sigma rho then None
          else Some (with_atoms [ role_atom sigma y z ]))
        (Tbox.subroles_of tbox rho)
    in
    let eliminate direction var other =
      (* atom viewed as direction(other, var) with var unbound *)
      if y <> z && unbound w var then
        List.filter_map
          (fun sub ->
            match sub with
            | Concept.Name a' -> Some (with_atoms [ Cq.Unary (a', other) ])
            | Concept.Exists sigma when not (Role.equal sigma direction) ->
              Some (with_atoms [ role_atom sigma other (fresh ()) ])
            | Concept.Exists _ | Concept.Top -> None)
          (Tbox.subconcepts_of tbox (Concept.Exists direction))
      else []
    in
    let by_elim_z = eliminate rho z y in
    let by_elim_y = eliminate (Role.inv rho) y z in
    let by_reflexivity =
      if y <> z && Tbox.reflexive tbox rho then
        let candidate = substitute { w with atoms = others } z y in
        if candidate.atoms = [] then [] else [ candidate ]
      else []
    in
    by_role_inclusion @ by_elim_z @ by_elim_y @ by_reflexivity

(* the reduce step: unify pairs of atoms over the same predicate.
   Distinguished variables may be unified too (PerfectRef's reduce); the
   unified query then repeats an answer variable in the head. *)
let reductions w =
  let rec pairs acc = function
    | [] -> acc
    | a :: rest -> pairs (List.map (fun b -> (a, b)) rest @ acc) rest
  in
  let rec unify k = function
    | [] -> Some k
    | (u, v) :: rest ->
      if u = v then unify k rest
      else
        let keep, gone = if List.mem u k.answer then (u, v) else (v, u) in
        let rest' =
          List.map
            (fun (a, b) ->
              ((if a = gone then keep else a), if b = gone then keep else b))
            rest
        in
        unify (substitute k gone keep) rest'
  in
  List.filter_map
    (fun (a, b) ->
      match (a, b) with
      | Cq.Unary (pa, u), Cq.Unary (pb, v) when Symbol.equal pa pb ->
        unify w [ (u, v) ]
      | Cq.Binary (pa, u1, u2), Cq.Binary (pb, v1, v2) when Symbol.equal pa pb ->
        unify w [ (u1, v1); (u2, v2) ]
      | _ -> None)
    (pairs [] w.atoms)

(* The seen set hashes every atom: the polymorphic [Hashtbl.hash] reads only
   the first few atoms, so the rewritings of a long chain would share a few
   buckets and each [push] would compare along them. *)
module Seen = Hashtbl.Make (struct
  type t = wcq

  let equal = ( = )

  let hash w =
    List.fold_left
      (fun h atom -> (h * 31) + Hashtbl.hash atom)
      (Hashtbl.hash w.answer) w.atoms
end)

let rewrite_wcqs ?(budget = Budget.none) ?(max_cqs = 100_000) tbox q =
  let counter = ref 0 in
  let seen = Seen.create 256 in
  let out = ref [] in
  let queue = Queue.create () in
  let push w =
    let w = canonicalize w in
    if w.atoms <> [] && not (Seen.mem seen w) then begin
      if Seen.length seen >= max_cqs then
        raise
          (Error.Obda_error
             (Error.Budget_exhausted
                { resource = Size; spent = max_cqs + 1; limit = max_cqs }));
      Budget.grow ~by:(List.length w.atoms) budget;
      Seen.add seen w ();
      out := w :: !out;
      Queue.add w queue
    end
  in
  push { answer = Cq.answer_vars q; atoms = Cq.atoms q };
  while not (Queue.is_empty queue) do
    Budget.step budget;
    let w = Queue.pop queue in
    List.iter
      (fun atom -> List.iter push (atom_rewritings tbox counter w atom))
      w.atoms;
    List.iter push (reductions w)
  done;
  List.rev !out

let rewrite_cqs ?budget ?max_cqs tbox q =
  List.filter_map
    (fun w ->
      (* queries whose head repeats a variable have no Cq.t form *)
      let rec distinct = function
        | [] -> true
        | x :: rest -> (not (List.mem x rest)) && distinct rest
      in
      if distinct w.answer then Some (Cq.make ~answer:w.answer w.atoms)
      else None)
    (rewrite_wcqs ?budget ?max_cqs tbox q)

(* [site] distinguishes the plain and condensed variants in fault plans *)
let ndl_of_wcqs ~site q wcqs =
  let goal = Symbol.fresh "GUcq" in
  let goal_args = Cq.answer_vars q in
  let clauses =
    List.map
      (fun w ->
        Fault.hit site;
        Obs.incr "ndl.clauses_emitted";
        Obs.count "ndl.atoms_emitted" (1 + List.length w.atoms);
        {
          Ndl.head = (goal, List.map (fun v -> Ndl.Var v) w.answer);
          body =
            List.map
              (function
                | Cq.Unary (a, z) -> Ndl.Pred (a, [ Ndl.Var z ])
                | Cq.Binary (p, y, z) -> Ndl.Pred (p, [ Ndl.Var y; Ndl.Var z ]))
              w.atoms;
        })
      wcqs
  in
  let params = Symbol.Map.singleton goal (List.length goal_args) in
  Ndl.make ~params ~goal ~goal_args clauses

let rewrite ?budget ?max_cqs tbox q =
  Obs.with_span "rewrite.ucq" (fun () ->
      Ndl.observe
        (ndl_of_wcqs ~site:Fault.rewrite_ucq_emit q
           (rewrite_wcqs ?budget ?max_cqs tbox q)))

(* ------------------------------------------------------------------ *)
(* CQ subsumption *)

(* homomorphism (answer1, atoms1) → (answer2, atoms2), positional on the
   answer tuples *)
let subsumes_raw (answer1, atoms1) (answer2, atoms2) =
  if List.length answer1 <> List.length answer2 then false
  else begin
    let rec seed subst = function
      | [], [] -> Some subst
      | u :: us, v :: vs -> (
        match List.assoc_opt u subst with
        | Some v' -> if v' = v then seed subst (us, vs) else None
        | None -> seed ((u, v) :: subst) (us, vs))
      | _ -> None
    in
    match seed [] (answer1, answer2) with
    | None -> false
    | Some subst0 ->
      let answer_var v = List.mem v answer1 in
      let rec extend subst = function
        | [] -> true
        | atom :: rest ->
          let try_map pairs =
            let rec bind subst = function
              | [] -> Some subst
              | (v, t) :: more -> (
                match List.assoc_opt v subst with
                | Some t' -> if t' = t then bind subst more else None
                | None -> if answer_var v then None else bind ((v, t) :: subst) more)
            in
            match bind subst pairs with
            | Some subst' -> extend subst' rest
            | None -> false
          in
          List.exists
            (fun atom2 ->
              match (atom, atom2) with
              | Cq.Unary (a, z), Cq.Unary (a', z') when Symbol.equal a a' ->
                try_map [ (z, z') ]
              | Cq.Binary (p, y, z), Cq.Binary (p', y', z') when Symbol.equal p p'
                ->
                try_map [ (y, y'); (z, z') ]
              | _ -> false)
            atoms2
      in
      extend subst0 atoms1
  end

let subsumes q1 q2 =
  subsumes_raw
    (Cq.answer_vars q1, Cq.atoms q1)
    (Cq.answer_vars q2, Cq.atoms q2)

let condense ?(budget = Budget.none) wcqs =
  let arr = Array.of_list wcqs in
  let n = Array.length arr in
  let dropped = Array.make n false in
  let raw i = (arr.(i).answer, arr.(i).atoms) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Budget.step budget;
      if i <> j && (not dropped.(i)) && not dropped.(j) then
        if subsumes_raw (raw j) (raw i) then
          if subsumes_raw (raw i) (raw j) then begin
            if j < i then dropped.(i) <- true
          end
          else dropped.(i) <- true
    done
  done;
  Array.to_list arr |> List.filteri (fun i _ -> not dropped.(i))

let rewrite_condensed ?budget ?max_cqs tbox q =
  Obs.with_span "rewrite.ucq-condensed" (fun () ->
      Ndl.observe
        (ndl_of_wcqs ~site:Fault.rewrite_ucq_condensed_emit q
           (condense ?budget (rewrite_wcqs ?budget ?max_cqs tbox q))))
