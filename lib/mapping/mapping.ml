open Obda_syntax
open Obda_data
module Ndl = Obda_ndl.Ndl
module Eval = Obda_ndl.Eval
module Error = Obda_runtime.Error

type rule = { head : Symbol.t * string list; body : Ndl.atom list }
type t = rule list

let rule name vars body =
  let r = { head = (Symbol.intern name, vars); body } in
  let n = List.length vars in
  if n < 1 || n > 2 then
    invalid_arg "Mapping.rule: head must be unary or binary";
  let body_vars = List.concat_map Ndl.atom_vars body in
  List.iter
    (fun v ->
      if not (List.mem v body_vars) then
        invalid_arg
          (Printf.sprintf "Mapping.rule: head variable %s not in the body" v))
    vars;
  r

let validate rules =
  try
    List.iter (fun r -> ignore (rule (Symbol.name (fst r.head)) (snd r.head) r.body)) rules;
    Ok ()
  with Invalid_argument m -> Error m

(* Every body atom over a source relation must have that relation's
   arity: the evaluator reads source rows at the atom's arity. *)
let check_arities rules src =
  List.iter
    (fun r ->
      List.iter
        (function
          | Ndl.Pred (p, ts) -> (
            match Source.arity src p with
            | Some n when n <> List.length ts ->
              Error.parse_error ~line:0
                "relation %a has arity %d in the source but arity %d in \
                 the mapping"
                Symbol.pp p n (List.length ts)
            | _ -> ())
          | Ndl.Eq _ | Ndl.Dom _ -> ())
        r.body)
    rules

let clauses_of rules =
  List.map
    (fun r ->
      {
        Ndl.head = (fst r.head, List.map (fun v -> Ndl.Var v) (snd r.head));
        body = r.body;
      })
    rules

let materialise rules src =
  match rules with
  | [] -> Abox.create ()
  | first :: _ ->
    check_arities rules src;
    let program =
      Ndl.make ~goal:(fst first.head)
        ~goal_args:(snd first.head)
        (clauses_of rules)
    in
    let result =
      Eval.run
        ~edb:(Source.edb_provider src)
        ~extra_domain:(Source.constants src)
        program (Abox.create ())
    in
    let abox = Abox.create () in
    Symbol.Map.iter
      (fun p rel ->
        List.iter
          (fun tuple ->
            match tuple with
            | [ c ] -> Abox.add_unary abox p c
            | [ c; d ] -> Abox.add_binary abox p c d
            | _ -> assert false)
          (Eval.relation_tuples rel))
      result.Eval.idb_relations;
    abox

let unfold rules (q : Ndl.query) =
  { q with Ndl.clauses = q.Ndl.clauses @ clauses_of rules }

let answers_virtual rules (q : Ndl.query) src =
  check_arities rules src;
  let unfolded = unfold rules q in
  (Eval.run
     ~edb:(Source.edb_provider src)
     ~extra_domain:(Source.constants src)
     unfolded (Abox.create ()))
    .Eval.answers
