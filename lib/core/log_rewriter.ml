open Obda_syntax
open Obda_ontology
open Obda_cq
module Ndl = Obda_ndl.Ndl
module Optimize = Obda_ndl.Optimize
module Budget = Obda_runtime.Budget
module Fault = Obda_runtime.Fault
module Error = Obda_runtime.Error
module Obs = Obda_obs.Obs

let type_guard = 100_000

module VarSet = Set.Make (String)

type ctx = {
  tbox : Tbox.t;
  q : Cq.t;
  dec : Tree_decomposition.t;
  x : Cq.var list;
  budget : Budget.t;
  (* atom index -> bags covering it *)
  coverage : int list array;
  atoms : Cq.atom array;
  (* per bag variable: the candidate words it may take (Word_type.locally_ok) *)
  words : Word_type.word list Cq.Var_map.t;
  (* per bag: its atoms, and among them the binary P(y,z), y ≠ z, the
     pairs a bag type must satisfy *)
  bag_atoms : Cq.atom list array;
  bag_pairs : (Symbol.t * Cq.var * Cq.var) list array;
  mutable clauses : Ndl.clause list;
  mutable params : int Symbol.Map.t;
  (* per (subtree id, w): the predicate G_D^w with its arguments *)
  memo :
    (int * (Cq.var * Word_type.word) list, (Symbol.t * Cq.var list) option)
    Hashtbl.t;
  mutable counter : int;
}

let bag ctx t = ctx.dec.Tree_decomposition.bags.(t)
let tree ctx = ctx.dec.Tree_decomposition.tree

(* variables shared between D and its outside neighbours: ∂D *)
let boundary_vars ctx d =
  let in_d t = List.mem t d in
  List.fold_left
    (fun acc t ->
      List.fold_left
        (fun acc t' ->
          if in_d t' then acc
          else
            List.fold_left
              (fun acc v -> if List.mem v (bag ctx t') then VarSet.add v acc else acc)
              acc (bag ctx t))
        acc
        (Ugraph.neighbours (tree ctx) t))
    VarSet.empty d
  |> VarSet.elements

let boundary_nodes ctx d =
  List.filter
    (fun t ->
      List.exists (fun t' -> not (List.mem t' d)) (Ugraph.neighbours (tree ctx) t))
    d

(* answer variables of the atoms covered by a bag in D *)
let x_of ctx d =
  let covered = Hashtbl.create 16 in
  Array.iteri
    (fun i bags ->
      if List.exists (fun t -> List.mem t d) bags then
        List.iter
          (fun v -> Hashtbl.replace covered v ())
          (Cq.atom_vars ctx.atoms.(i)))
    ctx.coverage;
  List.filter (Hashtbl.mem covered) ctx.x

(* the splitting node of Lemma 10 *)
let splitter ctx d =
  match d with
  | [ t ] -> t
  | _ -> (
    match boundary_nodes ctx d with
    | [] | [ _ ] -> Ugraph.centroid (tree ctx) d
    | b1 :: b2 :: _ ->
      (* pick a node on the b1–b2 path minimising the larger of the two
         boundary-containing components *)
      let path =
        match Ugraph.path (tree ctx) b1 b2 with
        | Some p -> List.filter (fun t -> List.mem t d) p
        | None -> d
      in
      let score t =
        let rest = List.filter (fun u -> u <> t) d in
        List.fold_left
          (fun acc comp ->
            if List.mem b1 comp || List.mem b2 comp then
              max acc (List.length comp)
            else acc)
          0
          (Ugraph.components_within (tree ctx) rest)
      in
      List.fold_left
        (fun (bt, bs) t ->
          let s = score t in
          if s < bs then (t, s) else (bt, bs))
        (List.hd path, score (List.hd path))
        path
      |> fst)

let emit ctx head body =
  Fault.hit Fault.rewrite_log_emit;
  Budget.step ctx.budget;
  Budget.grow ~by:(1 + List.length body) ctx.budget;
  Obs.incr "ndl.clauses_emitted";
  Obs.count "ndl.atoms_emitted" (1 + List.length body);
  let body_vars = List.concat_map Ndl.atom_vars body in
  let missing =
    List.filter_map
      (function
        | Ndl.Var v when not (List.mem v body_vars) -> Some (Ndl.Dom (Ndl.Var v))
        | Ndl.Var _ | Ndl.Cst _ -> None)
      (snd head)
    |> List.sort_uniq compare
  in
  ctx.clauses <- { Ndl.head; body = body @ missing } :: ctx.clauses

let restrict_type ty vars =
  List.fold_left
    (fun acc v ->
      match Cq.Var_map.find_opt v ty with
      | Some w -> Cq.Var_map.add v w acc
      | None -> acc)
    Cq.Var_map.empty vars

(* enumerate the types s over the bag [sigma] of the splitting node,
   agreeing with the ambient type [w] and compatible with the bag, in the
   order of the product of the free variables' words; each pair atom is
   tested as soon as both its variables have a word, pruning the product *)
let bag_types ctx w sigma =
  let bag_vars = bag ctx sigma in
  let free = List.filter (fun v -> not (Cq.Var_map.mem v w)) bag_vars in
  let per_var = List.map (fun z -> (z, Cq.Var_map.find z ctx.words)) free in
  let count =
    List.fold_left (fun acc (_, l) -> acc * max 1 (List.length l)) 1 per_var
  in
  if count > type_guard then
    Error.not_applicable ~algorithm:"Log"
      "bag type space exceeds %d (ontology too deep for this CQ)" type_guard;
  let fixed = restrict_type w bag_vars in
  let position v =
    let rec go i = function
      | [] -> -1
      | u :: rest -> if String.equal u v then i else go (i + 1) rest
    in
    go 0 free
  in
  (* [closes.(i)]: the pairs whose later variable is the i-th free one *)
  let closes = Array.make (List.length free) [] in
  let upfront =
    List.filter
      (fun ((_, y, z) as pair) ->
        let i = max (position y) (position z) in
        if i >= 0 then closes.(i) <- pair :: closes.(i);
        i < 0)
      ctx.bag_pairs.(sigma)
  in
  let holds ty (p, y, z) =
    Word_type.pair_ok ctx.tbox p (Cq.Var_map.find y ty) (Cq.Var_map.find z ty)
  in
  let rec product acc i = function
    | [] -> [ acc ]
    | (z, ws) :: rest ->
      List.concat_map
        (fun word ->
          let acc = Cq.Var_map.add z word acc in
          if List.for_all (holds acc) closes.(i) then product acc (i + 1) rest
          else [])
        ws
  in
  if
    Cq.Var_map.for_all (Word_type.locally_ok ctx.tbox ctx.q) fixed
    && List.for_all (holds fixed) upfront
  then product fixed 0 per_var
  else []

(* The splitting family of Lemma 10, computed once per rewrite: a subtree D
   with its boundary variables ∂D, the answer variables of its atoms, its
   splitting node and the subtrees left when that node is removed. *)
type subtree = {
  id : int;
  boundary : Cq.var list;
  xd : Cq.var list;
  sigma : int;
  children : subtree list;
}

let rec split ctx count d =
  let sigma = splitter ctx d in
  let children =
    List.map (split ctx count)
      (Ugraph.components_within (tree ctx) (List.filter (fun t -> t <> sigma) d))
  in
  incr count;
  { id = !count; boundary = boundary_vars ctx d; xd = x_of ctx d; sigma; children }

(* returns the predicate (with its argument variables) for (D, w), or None
   when no clause for it can fire *)
let rec pred_for ctx d w =
  let key = (d.id, Cq.Var_map.bindings w) in
  match Hashtbl.find_opt ctx.memo key with
  | Some r -> r
  | None ->
    let args = d.boundary @ d.xd in
    ctx.counter <- ctx.counter + 1;
    let p = Symbol.fresh ("Glog" ^ string_of_int ctx.counter) in
    let bag_vars = bag ctx d.sigma in
    let head = (p, List.map (fun v -> Ndl.Var v) args) in
    let made = ref false in
    List.iter
      (fun s ->
        Budget.step ctx.budget;
        let union = Cq.Var_map.union (fun _ a _ -> Some a) s w in
        (* one body per child subtree, if all children are productive *)
        let rec child_calls acc = function
          | [] -> Some (List.rev acc)
          | d' :: rest -> (
            match pred_for ctx d' (restrict_type union d'.boundary) with
            | None -> None
            | Some (p', args') ->
              child_calls
                (Ndl.Pred (p', List.map (fun v -> Ndl.Var v) args') :: acc)
                rest)
        in
        match child_calls [] d.children with
        | None -> ()
        | Some calls ->
          let at =
            Word_type.at_atoms ctx.tbox ctx.bag_atoms.(d.sigma) ~scope:bag_vars
              ~emit_for:(fun _ -> true)
              s
          in
          made := true;
          emit ctx head (at @ calls))
      (bag_types ctx w d.sigma);
    let result = if !made then Some (p, args) else None in
    Hashtbl.replace ctx.memo key result;
    if !made then ctx.params <- Symbol.Map.add p (List.length d.xd) ctx.params;
    result

let rewrite ?(budget = Budget.none) ?decomposition tbox q =
  Obs.with_span "rewrite.log" (fun () ->
  if not (Cq.is_connected q) then
    Error.not_applicable ~algorithm:"Log" "CQ must be connected";
  let d_depth =
    match Tbox.depth tbox with
    | Tbox.Finite d -> d
    | Tbox.Infinite ->
      Error.not_applicable ~algorithm:"Log" "ontology of infinite depth"
  in
  let dec =
    match decomposition with
    | Some d -> d
    | None -> Tree_decomposition.of_cq q
  in
  let atoms = Array.of_list (Cq.atoms q) in
  let coverage =
    Array.map
      (fun atom ->
        let vars = Cq.atom_vars atom in
        List.filteri (fun _ _ -> true)
          (List.init (Array.length dec.Tree_decomposition.bags) Fun.id)
        |> List.filter (fun t ->
               List.for_all
                 (fun v -> List.mem v dec.Tree_decomposition.bags.(t))
                 vars))
      atoms
  in
  Array.iteri
    (fun i bags ->
      if bags = [] then
        Format.kasprintf invalid_arg
          "Log_rewriter.rewrite: atom %a not covered by the decomposition"
          Cq.pp_atom atoms.(i))
    coverage;
  let cands = Word_type.candidates tbox ~max_depth:d_depth in
  let words =
    Array.fold_left
      (List.fold_left (fun acc z ->
           if Cq.Var_map.mem z acc then acc
           else Cq.Var_map.add z (List.filter (Word_type.locally_ok tbox q z) cands) acc))
      Cq.Var_map.empty dec.Tree_decomposition.bags
  in
  let bag_atoms =
    Array.map
      (fun bag_vars ->
        List.filter
          (fun atom -> List.for_all (fun v -> List.mem v bag_vars) (Cq.atom_vars atom))
          (Cq.atoms q))
      dec.Tree_decomposition.bags
  in
  let bag_pairs =
    Array.map
      (List.filter_map (function
        | Cq.Binary (p, y, z) when y <> z -> Some (p, y, z)
        | Cq.Binary _ | Cq.Unary _ -> None))
      bag_atoms
  in
  let ctx =
    {
      tbox;
      q;
      dec;
      words;
      bag_atoms;
      bag_pairs;
      x = Cq.answer_vars q;
      budget;
      coverage;
      atoms;
      clauses = [];
      params = Symbol.Map.empty;
      memo = Hashtbl.create 64;
      counter = 0;
    }
  in
  let all_nodes = List.init (Array.length dec.Tree_decomposition.bags) Fun.id in
  let goal = Symbol.fresh "GLog" in
  let goal_args = Cq.answer_vars q in
  (match pred_for ctx (split ctx (ref 0) all_nodes) Cq.Var_map.empty with
  | Some (p, args) ->
    emit ctx
      (goal, List.map (fun v -> Ndl.Var v) goal_args)
      [ Ndl.Pred (p, List.map (fun v -> Ndl.Var v) args) ]
  | None -> ());
  let params = Symbol.Map.add goal (List.length goal_args) ctx.params in
  let query = Ndl.make ~params ~goal ~goal_args (List.rev ctx.clauses) in
  let idb = Ndl.idb_preds query in
  Ndl.observe (Optimize.prune ~edb:(fun p -> not (Symbol.Set.mem p idb)) query))
