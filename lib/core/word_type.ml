open Obda_syntax
open Obda_ontology
open Obda_cq
module Ndl = Obda_ndl.Ndl

type word = Role.t list

let pp_word ppf = function
  | [] -> Format.pp_print_string ppf "eps"
  | w ->
    Format.pp_print_string ppf
      (String.concat "." (List.map Role.to_string w))

let compare_word = List.compare Role.compare

type t = word Cq.Var_map.t

let candidates tbox ~max_depth = [] :: Tbox.words_up_to tbox max_depth

let last_letter = function [] -> None | w -> Some (List.nth w (List.length w - 1))

(* partial application to (tbox, q, z) reads z's atoms once *)
let locally_ok tbox q z =
  let answer = Cq.is_answer_var q z in
  let unary = Cq.unary_atoms_of q z in
  let loops_ok =
    List.for_all (fun p -> Tbox.reflexive tbox (Role.make p)) (Cq.loop_atoms_of q z)
  in
  fun w ->
    match w with
    | [] -> true
    | _ ->
      (not answer)
      && (match last_letter w with
         | Some rho -> List.for_all (fun a -> Tbox.null_satisfies tbox rho a) unary
         | None -> true)
      && loops_ok

(* P(y,z) with y ↦ wy, z ↦ wz: (i) both ε; (ii) equal words and reflexive P;
   (iii) ρ ⊑ P with wz = wy·ρ or wy = wz·ρ⁻. *)
let pair_ok tbox p wy wz =
  let rho = Role.make p in
  match (wy, wz) with
  | [], [] -> true
  | _ ->
    (compare_word wy wz = 0 && Tbox.reflexive tbox rho)
    || (let ly = List.length wy and lz = List.length wz in
        if lz = ly + 1 && List.compare Role.compare wy (List.filteri (fun i _ -> i < ly) wz) = 0
        then
          match last_letter wz with
          | Some sigma -> Tbox.sub_role tbox ~sub:sigma ~sup:rho
          | None -> false
        else if ly = lz + 1
                && List.compare Role.compare wz (List.filteri (fun i _ -> i < lz) wy) = 0
        then
          match last_letter wy with
          | Some sigma -> Tbox.sub_role tbox ~sub:sigma ~sup:(Role.inv rho)
          | None -> false
        else false)

let at_atoms tbox atoms ~scope ~emit_for ty =
  let in_scope z = List.mem z scope in
  let value z = Option.value ~default:[] (Cq.Var_map.find_opt z ty) in
  let from_atoms =
    List.concat_map
      (fun atom ->
        match atom with
        | Cq.Unary (a, z) when in_scope z && emit_for z ->
          if value z = [] then [ Ndl.Pred (a, [ Ndl.Var z ]) ] else []
        | Cq.Binary (p, y, z)
          when y <> z && in_scope y && in_scope z && (emit_for y || emit_for z)
          ->
          if value y = [] && value z = [] then
            [ Ndl.Pred (p, [ Ndl.Var y; Ndl.Var z ]) ]
          else [ Ndl.Eq (Ndl.Var y, Ndl.Var z) ]
        | Cq.Binary (p, y, z) when y = z && in_scope z && emit_for z ->
          if value z = [] then [ Ndl.Pred (p, [ Ndl.Var z; Ndl.Var z ]) ]
          else []
        | Cq.Unary _ | Cq.Binary _ -> [])
      atoms
  in
  let from_words =
    List.filter_map
      (fun z ->
        if not (emit_for z) then None
        else
          match value z with
          | [] -> None
          | rho :: _ ->
            Some (Ndl.Pred (Tbox.exists_name tbox rho, [ Ndl.Var z ])))
      scope
  in
  from_atoms @ from_words
