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

(* all total types over [vars]: products of per-variable candidate words,
   each with the positions in [cands] of its words, in the order of [vars] *)
let slice_types tbox q cands vars =
  let indexed = List.mapi (fun i w -> (i, w)) cands in
  let per_var =
    List.map
      (fun z ->
        let ok = Word_type.locally_ok tbox q z in
        List.filter (fun (_, w) -> ok w) indexed)
      vars
  in
  let count =
    List.fold_left (fun acc l -> acc * max 1 (List.length l)) 1 per_var
  in
  if count > type_guard then
    Error.not_applicable ~algorithm:"Lin"
      "slice type space exceeds %d (ontology too deep for this CQ)" type_guard;
  let rec product acc idx = function
    | [] -> [ (acc, Array.of_list (List.rev idx)) ]
    | (z, ws) :: rest ->
      List.concat_map
        (fun (i, w) -> product (Cq.Var_map.add z w acc) (i :: idx) rest)
        ws
  in
  product Cq.Var_map.empty [] (List.combine vars per_var)

let rewrite ?(budget = Budget.none) ?root tbox q =
  Obs.with_span "rewrite.lin" (fun () ->
  if not (Cq.is_tree_shaped q && Cq.is_connected q) then
    Error.not_applicable ~algorithm:"Lin" "CQ must be tree-shaped and connected";
  let d =
    match Tbox.depth tbox with
    | Tbox.Finite d -> d
    | Tbox.Infinite ->
      Error.not_applicable ~algorithm:"Lin" "ontology of infinite depth"
  in
  let root =
    match root with
    | Some r -> r
    | None -> (
      match Cq.answer_vars q with v :: _ -> v | [] -> List.hd (Cq.vars q))
  in
  let g = Cq.gaifman q in
  let slices =
    Ugraph.bfs_layers g (Cq.var_index q root)
    |> List.map (List.map (Cq.var_of_index q))
  in
  let slices = Array.of_list slices in
  let m = Array.length slices - 1 in
  let cands = Word_type.candidates tbox ~max_depth:d in
  let x = Cq.answer_vars q in
  (* x^n: answer variables occurring at depth ≥ n *)
  let x_from = Array.make (m + 1) [] in
  for n = m downto 0 do
    let here = List.filter (fun v -> List.mem v slices.(n)) x in
    x_from.(n) <-
      here @ (if n = m then [] else x_from.(n + 1))
  done;
  let types =
    Array.init (m + 1) (fun n -> Array.of_list (slice_types tbox q cands slices.(n)))
  in
  (* Word_type.pair_ok over positions in [cands], per predicate, computed
     on first use *)
  let cand = Array.of_list cands in
  let pair_tables = Symbol.Tbl.create 4 in
  let pair_ok p a b =
    let table =
      match Symbol.Tbl.find_opt pair_tables p with
      | Some t -> t
      | None ->
        let t = Array.make_matrix (Array.length cand) (Array.length cand) 0 in
        Symbol.Tbl.add pair_tables p t;
        t
    in
    if table.(a).(b) = 0 then
      table.(a).(b) <- (if Word_type.pair_ok tbox p cand.(a) cand.(b) then 1 else 2);
    table.(a).(b) = 1
  in
  (* the inter-slice compatibility of (w,s) for consecutive slices n, n+1
     concerns only the binary atoms between them — P(y,z) as (P, whether y
     is in slice n, the position of y in its slice, that of z in its) — and
     their At^s only the atoms within the two slices *)
  let position v vars =
    let rec go i = function
      | [] -> -1
      | u :: rest -> if String.equal u v then i else go (i + 1) rest
    in
    go 0 vars
  in
  let crossing =
    Array.init m (fun n ->
        let at k v = position v slices.(k) >= 0 in
        List.filter_map
          (function
            | Cq.Binary (p, y, z) when at n y && at (n + 1) z ->
              Some (p, true, position y slices.(n), position z slices.(n + 1))
            | Cq.Binary (p, y, z) when at (n + 1) y && at n z ->
              Some (p, false, position y slices.(n + 1), position z slices.(n))
            | Cq.Binary _ | Cq.Unary _ -> None)
          (Cq.atoms q))
  in
  let rec compatible wi si = function
    | [] -> true
    | (p, y_first, ky, kz) :: rest ->
      (if y_first then pair_ok p wi.(ky) si.(kz) else pair_ok p si.(ky) wi.(kz))
      && compatible wi si rest
  in
  let within vars =
    List.filter
      (fun atom -> List.for_all (fun v -> List.mem v vars) (Cq.atom_vars atom))
      (Cq.atoms q)
  in
  (* predicate per (slice, type), created on first use *)
  let preds = Array.map (fun ts -> Array.make (Array.length ts) None) types in
  let counter = ref 0 in
  let params = ref Symbol.Map.empty in
  let head_args =
    Array.init (m + 1) (fun n ->
        let z_exists = List.filter (fun v -> not (List.mem v x)) slices.(n) in
        List.map (fun v -> Ndl.Var v) (z_exists @ x_from.(n)))
  in
  let head_of n i =
    let p =
      match preds.(n).(i) with
      | Some p -> p
      | None ->
        incr counter;
        let p =
          Symbol.fresh ("Glin" ^ string_of_int n ^ "_" ^ string_of_int !counter)
        in
        preds.(n).(i) <- Some p;
        params := Symbol.Map.add p (List.length x_from.(n)) !params;
        p
    in
    (p, head_args.(n))
  in
  let clauses = ref [] in
  let emit head body =
    Fault.hit Fault.rewrite_lin_emit;
    Budget.step budget;
    Budget.grow ~by:(1 + List.length body) budget;
    Obs.incr "ndl.clauses_emitted";
    Obs.count "ndl.atoms_emitted" (1 + List.length body);
    (* head variables must occur in the body; pad with active-domain atoms *)
    let body_vars = List.concat_map Ndl.atom_vars body in
    let missing =
      List.filter_map
        (function
          | Ndl.Var v when not (List.mem v body_vars) -> Some (Ndl.Dom (Ndl.Var v))
          | Ndl.Var _ | Ndl.Cst _ -> None)
        (snd head)
    in
    clauses := { Ndl.head; body = body @ missing } :: !clauses
  in
  (* internal clauses: slice n -> slice n+1 *)
  for n = 0 to m - 1 do
    let scope = slices.(n) @ slices.(n + 1) in
    let atoms = within scope in
    let emit_for v = List.mem v slices.(n) in
    Array.iteri
      (fun i (w, wi) ->
        Array.iteri
          (fun j (s, si) ->
            Budget.step budget;
            if compatible wi si crossing.(n) then begin
              let union = Cq.Var_map.union (fun _ a _ -> Some a) w s in
              let head = head_of n i in
              let at = Word_type.at_atoms tbox atoms ~scope ~emit_for union in
              let next, next_args = head_of (n + 1) j in
              emit head (at @ [ Ndl.Pred (next, next_args) ])
            end)
          types.(n + 1))
      types.(n)
  done;
  (* base clauses for the last slice *)
  let atoms = within slices.(m) in
  Array.iteri
    (fun i (w, _) ->
      let head = head_of m i in
      let at =
        Word_type.at_atoms tbox atoms ~scope:slices.(m) ~emit_for:(fun _ -> true) w
      in
      emit head at)
    types.(m);
  (* goal clauses *)
  let goal = Symbol.fresh "GLin" in
  Array.iteri
    (fun i _ ->
      let p0, args0 = head_of 0 i in
      emit (goal, List.map (fun v -> Ndl.Var v) x) [ Ndl.Pred (p0, args0) ])
    types.(0);
  params := Symbol.Map.add goal (List.length x) !params;
  let query = Ndl.make ~params:!params ~goal ~goal_args:x (List.rev !clauses) in
  (* every predicate created here is intensional, even when it ended up with
     no defining clause (a type with no compatible continuation) — clauses
     mentioning those must be pruned, not treated as extensional lookups *)
  let generated =
    Array.fold_left
      (Array.fold_left (fun acc p -> Option.fold ~none:acc ~some:(fun p -> Symbol.Set.add p acc) p))
      (Symbol.Set.singleton goal) preds
  in
  Ndl.observe
    (Optimize.prune ~edb:(fun p -> not (Symbol.Set.mem p generated)) query))
