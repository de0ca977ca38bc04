open Obda_cq
open Obda_data
module Ndl = Obda_ndl.Ndl
module Eval = Obda_ndl.Eval
module Star = Obda_ndl.Star
module Optimize = Obda_ndl.Optimize
module Demand = Obda_ndl.Demand

(* The tuples the planner estimates the goal-directed evaluation of [q]
   over [abox] reads: {!Obda_ndl.Demand}'s estimate pass, over the ABox's
   own statistics. *)
let estimate abox q =
  let d =
    Demand.transform ~goal_directed:true
      ~relation:(fun p arity -> Abox.relation abox p ~arity)
      ~domain:(Abox.num_individuals abox) q
  in
  Lazy.force d.cost

(* ------------------------------------------------------------------ *)
(* Candidates *)

type candidate = { name : string; query : Ndl.query; cost : float }

let lin_variant tbox q root =
  Star.complete_to_arbitrary_linear tbox (Lin_rewriter.rewrite ~root tbox q)

let candidates tbox q abox =
  let omq = Omq.make tbox q in
  let raw = ref [] in
  let add name query = raw := (name, query) :: !raw in
  if Omq.applicable Omq.Lin omq then begin
    let g = Cq.gaifman q in
    let leaves =
      List.filter
        (fun v -> Ugraph.degree g (Cq.var_index q v) <= 1)
        (Cq.vars q)
    in
    let centre = Cq.var_of_index q (Ugraph.centroid g (List.init (List.length (Cq.vars q)) Fun.id)) in
    let roots =
      List.sort_uniq String.compare
        ((match leaves with a :: b :: _ -> [ a; b ] | l -> l) @ [ centre ])
    in
    List.iter
      (fun r -> add (Printf.sprintf "Lin/root=%s" r) (lin_variant tbox q r))
      roots
  end;
  if Omq.applicable Omq.Log omq then add "Log" (Omq.rewrite Omq.Log omq);
  if Omq.applicable Omq.Tw omq then begin
    let tw = Omq.rewrite Omq.Tw omq in
    add "Tw" tw;
    add "Tw*" (Optimize.inline_single_use tw)
  end;
  List.map (fun (name, query) -> { name; query; cost = estimate abox query }) !raw
  |> List.sort (fun a b -> Float.compare a.cost b.cost)

let choose tbox q abox =
  match candidates tbox q abox with
  | best :: _ -> best
  | [] -> invalid_arg "Adaptive.choose: no applicable rewriting"

let answer tbox q abox =
  let c = choose tbox q abox in
  Eval.answers c.query abox
