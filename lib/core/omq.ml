open Obda_syntax
open Obda_ontology
open Obda_cq
open Obda_data
open Obda_chase
module Ndl = Obda_ndl.Ndl
module Eval = Obda_ndl.Eval
module Star = Obda_ndl.Star
module Budget = Obda_runtime.Budget
module Error = Obda_runtime.Error
module Obs = Obda_obs.Obs

type t = { tbox : Tbox.t; cq : Cq.t }

let make tbox cq = { tbox; cq }

type algorithm = Tw | Lin | Log | Ucq | Ucq_condensed | Presto_like

let all_algorithms = [ Tw; Lin; Log; Ucq; Ucq_condensed; Presto_like ]

let algorithm_name = function
  | Tw -> "Tw"
  | Lin -> "Lin"
  | Log -> "Log"
  | Ucq -> "Clipper*(UCQ)"
  | Ucq_condensed -> "Rapid*(UCQ)"
  | Presto_like -> "Presto*(TW)"

let algorithm_of_string s =
  match String.lowercase_ascii s with
  | "tw" -> Some Tw
  | "lin" -> Some Lin
  | "log" -> Some Log
  | "ucq" | "clipper" -> Some Ucq
  | "ucq-condensed" | "rapid" -> Some Ucq_condensed
  | "presto" | "flat-tw" -> Some Presto_like
  | _ -> None

let finite_depth omq =
  match Tbox.depth omq.tbox with Tbox.Finite _ -> true | Tbox.Infinite -> false

(* a forest counts: disconnected CQs are rewritten component-by-component *)
let forest omq =
  List.for_all Cq.is_tree_shaped (Cq.connected_components omq.cq)

let applicable alg omq =
  match alg with
  | Tw -> forest omq
  | Lin -> forest omq && finite_depth omq
  | Log -> finite_depth omq
  | Ucq | Ucq_condensed -> true
  | Presto_like -> forest omq

type classification = {
  ontology_depth : Tbox.depth;
  treewidth : int;
  tree_shaped : bool;
  leaves : int option;
  linear : bool;
  classes : string list;
}

let classify omq =
  let d = Tbox.depth omq.tbox in
  let tree_shaped = Cq.is_tree_shaped omq.cq in
  let tw = Tree_decomposition.treewidth_upper_bound omq.cq in
  let leaves = if tree_shaped then Some (Cq.num_leaves omq.cq) else None in
  let linear = Cq.is_linear omq.cq in
  let classes =
    let depth_str =
      match d with Tbox.Finite d -> string_of_int d | Tbox.Infinite -> "inf"
    in
    let base =
      match d with
      | Tbox.Finite _ -> [ Printf.sprintf "OMQ(%s,%d,inf)" depth_str tw ]
      | Tbox.Infinite -> []
    in
    let tree_classes =
      match (leaves, d) with
      | Some l, Tbox.Finite _ ->
        [
          Printf.sprintf "OMQ(%s,1,%d)" depth_str l;
          Printf.sprintf "OMQ(inf,1,%d)" l;
        ]
      | Some l, Tbox.Infinite -> [ Printf.sprintf "OMQ(inf,1,%d)" l ]
      | None, _ -> []
    in
    base @ tree_classes
  in
  { ontology_depth = d; treewidth = tw; tree_shaped; leaves; linear; classes }

let pp_classification ppf c =
  Format.fprintf ppf
    "depth=%a treewidth<=%d tree=%b leaves=%s linear=%b classes={%s}"
    Tbox.pp_depth c.ontology_depth c.treewidth c.tree_shaped
    (match c.leaves with Some l -> string_of_int l | None -> "-")
    c.linear
    (String.concat ", " c.classes)

(* rewrite each connected component and conjoin the goals *)
let componentwise rewrite_one omq =
  let components = Cq.connected_components omq.cq in
  match components with
  | [ _ ] -> rewrite_one omq.cq
  | comps ->
    let sub = List.map (fun c -> (c, rewrite_one c)) comps in
    let goal = Symbol.fresh "GAnd" in
    let goal_args = Cq.answer_vars omq.cq in
    let body =
      List.map
        (fun ((c : Cq.t), (sq : Ndl.query)) ->
          ignore c;
          Ndl.Pred (sq.Ndl.goal, List.map (fun v -> Ndl.Var v) sq.Ndl.goal_args))
        sub
    in
    let clauses =
      {
        Ndl.head = (goal, List.map (fun v -> Ndl.Var v) goal_args);
        body;
      }
      :: List.concat_map (fun (_, (sq : Ndl.query)) -> sq.Ndl.clauses) sub
    in
    let params =
      List.fold_left
        (fun acc (_, (sq : Ndl.query)) ->
          Symbol.Map.union (fun _ a _ -> Some a) acc sq.Ndl.params)
        (Symbol.Map.singleton goal (List.length goal_args))
        sub
    in
    Ndl.make ~params ~goal ~goal_args clauses

let rewrite ?budget ?(over = `Arbitrary) ?(consistency = false) alg omq =
  Obs.with_span "rewrite"
    ~attrs:
      [
        ("algorithm", algorithm_name alg);
        ("over", match over with `Complete -> "complete" | `Arbitrary -> "arbitrary");
      ]
  @@ fun () ->
  let base =
    match (alg, over) with
    | (Ucq | Ucq_condensed), _ ->
      (* PerfectRef rewrites over arbitrary instances natively *)
      if alg = Ucq then Ucq_rewriter.rewrite ?budget omq.tbox omq.cq
      else Ucq_rewriter.rewrite_condensed ?budget omq.tbox omq.cq
    | Tw, `Complete -> componentwise (Tw_rewriter.rewrite ?budget omq.tbox) omq
    | Lin, `Complete -> componentwise (Lin_rewriter.rewrite ?budget omq.tbox) omq
    | Log, `Complete -> componentwise (Log_rewriter.rewrite ?budget omq.tbox) omq
    | Presto_like, `Complete ->
      componentwise (Presto_like.rewrite ?budget omq.tbox) omq
    | Lin, `Arbitrary ->
      (* Lemma 3 preserves linearity per component; the conjunction clause
         joining the components is IDB-only, so it needs no transformation *)
      componentwise
        (fun c ->
          Star.complete_to_arbitrary_linear omq.tbox
            (Lin_rewriter.rewrite ?budget omq.tbox c))
        omq
    | Tw, `Arbitrary ->
      Star.complete_to_arbitrary omq.tbox
        (componentwise (Tw_rewriter.rewrite ?budget omq.tbox) omq)
    | Log, `Arbitrary ->
      Star.complete_to_arbitrary omq.tbox
        (componentwise (Log_rewriter.rewrite ?budget omq.tbox) omq)
    | Presto_like, `Arbitrary ->
      Star.complete_to_arbitrary omq.tbox
        (componentwise (Presto_like.rewrite ?budget omq.tbox) omq)
  in
  Ndl.observe
    (if consistency && over = `Arbitrary then
       Consistency.guard_rewriting omq.tbox base
     else base)

(* ------------------------------------------------------------------ *)
(* Content digests: the key of the service layer's rewriting cache.  Two
   OMQs with the same axioms (as multisets), the same CQ up to atom order
   and the same (algorithm, over) configuration share a rewriting, so the
   digest is computed over a canonical rendering: sorted axiom strings and
   sorted atom strings. *)

let digest ?(over = `Arbitrary) alg omq =
  let buf = Buffer.create 256 in
  let axiom_strings =
    List.sort String.compare
      (List.map (Format.asprintf "%a" Tbox.pp_axiom) (Tbox.axioms omq.tbox))
  in
  List.iter
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    axiom_strings;
  Buffer.add_string buf "|q|";
  Buffer.add_string buf (String.concat "," (Cq.answer_vars omq.cq));
  Buffer.add_char buf '\n';
  let atom_strings =
    List.sort String.compare
      (List.map (Format.asprintf "%a" Cq.pp_atom) (Cq.atoms omq.cq))
  in
  List.iter
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    atom_strings;
  Buffer.add_string buf "|alg|";
  Buffer.add_string buf (algorithm_name alg);
  Buffer.add_string buf
    (match over with `Complete -> "|complete" | `Arbitrary -> "|arbitrary");
  Digest.to_hex (Digest.string (Buffer.contents buf))

let all_tuples abox arity =
  let inds = Abox.individuals abox in
  let rec tuples n =
    if n = 0 then [ [] ]
    else
      let rest = tuples (n - 1) in
      List.concat_map (fun c -> List.map (fun t -> c :: t) rest) inds
  in
  tuples arity

let default_algorithm omq = if Cq.is_tree_shaped omq.cq then Tw else Log

let inconsistent_answers ~on_inconsistent omq abox =
  match on_inconsistent with
  | `All_tuples -> all_tuples abox (List.length (Cq.answer_vars omq.cq))
  | `Error ->
    raise
      (Error.Obda_error
         (Error.Inconsistent_data
            { reason = "the data violates a disjointness axiom of the ontology" }))

(* The consistency pre-check is itself a chase over the completed data, so
   it gets its own span in the request trace. *)
let consistent omq abox =
  Obs.with_span "chase.consistency" (fun () -> Abox.consistent omq.tbox abox)

let answer ?budget ?explain ?(on_inconsistent = `All_tuples) ?algorithm
    omq abox =
  if not (consistent omq abox) then
    inconsistent_answers ~on_inconsistent omq abox
  else
    let alg =
      match algorithm with Some a -> a | None -> default_algorithm omq
    in
    let q = rewrite ?budget ~over:`Arbitrary alg omq in
    (Eval.run ?budget ?explain q abox).answers

let answer_certain ?budget ?(on_inconsistent = `All_tuples) omq abox =
  if not (consistent omq abox) then
    inconsistent_answers ~on_inconsistent omq abox
  else Certain.answers ?budget omq.tbox abox omq.cq

(* ------------------------------------------------------------------ *)
(* Graceful degradation: an ordered chain of algorithms, each tried under a
   fresh step/size budget (the wall-clock deadline is shared), falling
   through on Not_applicable and Budget_exhausted. *)

type attempt = {
  algorithm : algorithm;
  trial : int;
  outcome : (unit, Error.t) result;
  duration : float;
}

type fallback_answer = {
  answers : Symbol.t list list;
  answered_by : algorithm option;
      (** [None] when the inconsistency convention produced the answers
          without running any rewriting *)
  attempts : attempt list;  (** every attempt, in chain order *)
}

(* only step/size exhaustion is transient: escalating the sub-budget can
   help, whereas a blown wall deadline or a wrong-shaped OMQ cannot change *)
let transient = function
  | Error.Budget_exhausted { resource = Error.Steps | Error.Size; _ } -> true
  | _ -> false

let default_chain preferred =
  let tail =
    List.filter
      (fun a -> a <> preferred)
      [ Presto_like; Ucq_condensed; Ucq ]
  in
  preferred :: tail

let answer_with_fallback ?(budget = Budget.none) ?explain ?(retries = 0)
    ?chain ?(on_inconsistent = `All_tuples) omq abox =
  let chain =
    match chain with
    | Some c ->
      if c = [] then invalid_arg "Omq.answer_with_fallback: empty chain";
      c
    | None -> default_chain (default_algorithm omq)
  in
  if not (consistent omq abox) then
    {
      answers = inconsistent_answers ~on_inconsistent omq abox;
      answered_by = None;
      attempts = [];
    }
  else
    let rec try_chain attempts = function
      | [] ->
        (* every algorithm failed: re-raise the last error *)
        (match attempts with
        | { outcome = Error error; _ } :: _ -> raise (Error.Obda_error error)
        | _ -> assert false)
      | alg :: rest ->
        (* a fresh step/size allowance per attempt; the deadline is shared,
           so neither falling back nor retrying ever extends the request's
           total time budget *)
        let rec run_trial trial factor attempts =
          let b =
            if factor = 1. then Budget.sub budget
            else Budget.sub_scaled ~factor budget
          in
          let t0 = Unix.gettimeofday () in
          let finish outcome =
            {
              algorithm = alg;
              trial;
              outcome;
              duration = Unix.gettimeofday () -. t0;
            }
          in
          let attrs =
            ("algorithm", algorithm_name alg)
            ::
            (if trial > 1 then [ ("trial", string_of_int trial) ] else [])
          in
          match
            Obs.with_span "omq.attempt" ~attrs (fun () ->
                if not (applicable alg omq) then
                  Error.not_applicable ~algorithm:(algorithm_name alg)
                    "side conditions do not hold for this OMQ"
                else
                  let q = rewrite ~budget:b ~over:`Arbitrary alg omq in
                  (Eval.run ~budget:b ?explain q abox).answers)
          with
          | answers ->
            {
              answers;
              answered_by = Some alg;
              attempts = List.rev (finish (Ok ()) :: attempts);
            }
          | exception
              Error.Obda_error
                ((Error.Not_applicable _ | Error.Budget_exhausted _) as error)
            ->
            let attempts = finish (Error error) :: attempts in
            (* retry the same algorithm under a doubled sub-budget — but
               only for transient exhaustion, and never once the request's
               wall deadline has passed *)
            if
              transient error
              && trial <= retries
              && not (Budget.wall_exhausted budget)
            then run_trial (trial + 1) (factor *. 2.) attempts
            else try_chain attempts rest
        in
        run_trial 1 1. attempts
    in
    try_chain [] chain
