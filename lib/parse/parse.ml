open Obda_syntax
open Obda_ontology
open Obda_cq
open Obda_data

module Error = Obda_runtime.Error
module Fault = Obda_runtime.Fault

let fail line fmt = Error.parse_error ~line fmt
let fail_at line column fmt = Error.parse_error ~line ~column fmt

let lines_of s = String.split_on_char '\n' s

(* Annotate parse errors escaping [f] with the file name and the verbatim
   offending line, neither of which the line-level parsers know about.
   [Invalid_argument] from the AST smart constructors (duplicate answer
   variables in [Cq.make], clashing arities in [Tbox.make]…) is an input
   problem too, so it joins the parse class rather than escaping as an
   internal error. *)
let with_source ?file s f =
  try f () with
  | Error.Obda_error (Error.Parse_error { loc; msg; source_line }) ->
    let source_line =
      match source_line with
      | Some _ as sl -> sl
      | None ->
        (* line 0 marks a whole-file error: there is no line to quote (and
           [nth_opt] rejects the negative index) *)
        if loc.Error.line < 1 then None
        else (
          match List.nth_opt (lines_of s) (loc.Error.line - 1) with
          | Some l when String.trim l <> "" -> Some l
          | _ -> None)
    in
    let file = match loc.Error.file with Some _ as f -> f | None -> file in
    raise
      (Error.Obda_error
         (Error.Parse_error { loc = { loc with Error.file }; msg; source_line }))
  | Invalid_argument msg ->
    raise
      (Error.Obda_error
         (Error.Parse_error
            {
              loc = { Error.file; line = 0; column = None };
              msg;
              source_line = None;
            }))

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token =
  | Ident of string
  | Lpar
  | Rpar
  | Comma
  | Arrow  (* -> *)
  | Larrow  (* <- *)
  | Underscore

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let tokenize_line line_no s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | ' ' | '\t' | '\r' | '.' -> go (i + 1) acc
      | '#' -> List.rev acc (* comment *)
      | '(' -> go (i + 1) (Lpar :: acc)
      | ')' -> go (i + 1) (Rpar :: acc)
      | ',' -> go (i + 1) (Comma :: acc)
      | '-' when i + 1 < n && s.[i + 1] = '>' -> go (i + 2) (Arrow :: acc)
      | '<' when i + 1 < n && s.[i + 1] = '-' -> go (i + 2) (Larrow :: acc)
      | c when is_ident_char c ->
        let j = ref i in
        while !j < n && is_ident_char s.[!j] do
          incr j
        done;
        (* a trailing '-' belongs to the identifier (inverse role) unless it
           starts an arrow *)
        let j =
          if !j < n && s.[!j] = '-' && not (!j + 1 < n && s.[!j + 1] = '>') then
            !j + 1
          else !j
        in
        let word = String.sub s i (j - i) in
        let tok = if word = "_" then Underscore else Ident word in
        go j (tok :: acc)
      | c -> fail_at line_no (i + 1) "unexpected character '%c'" c
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Atom-level parsing *)

type parg = Var of string | Anon

type patom =
  | Punary of string * parg
  | Pbinary of string * parg * parg
  | Pfalse
  | Prefl of string
  | Pirrefl of string

(* parse one atom starting at the token list; returns (atom, rest) *)
let rec parse_atom line toks =
  match toks with
  | Ident "false" :: rest -> (Pfalse, rest)
  | Ident "refl" :: Ident r :: rest -> (Prefl r, rest)
  | Ident "irrefl" :: Ident r :: rest -> (Pirrefl r, rest)
  | Ident name :: Lpar :: rest -> (
    let arg line = function
      | Ident v -> Var v
      | Underscore -> Anon
      | _ -> fail line "expected a variable or _"
    in
    match rest with
    | a1 :: Rpar :: rest' -> (Punary (name, arg line a1), rest')
    | a1 :: Comma :: a2 :: Rpar :: rest' ->
      (Pbinary (name, arg line a1, arg line a2), rest')
    | _ -> fail line "malformed atom after %s(" name)
  | Ident name :: _ -> fail line "expected ( after %s" name
  | _ -> fail line "expected an atom"

and parse_atom_list line toks =
  let atom, rest = parse_atom line toks in
  match rest with
  | Comma :: rest' ->
    let atoms, rest'' = parse_atom_list line rest' in
    (atom :: atoms, rest'')
  | _ -> ([ atom ], rest)

(* ------------------------------------------------------------------ *)
(* Ontology *)

(* interpret a parsed atom as a basic concept at a given variable, if
   possible: A(x) ↦ (x, A); P(x,_) ↦ (x, ∃P); P(_,x) ↦ (x, ∃P⁻);
   top(x) ↦ ⊤ *)
let as_concept line = function
  | Punary ("top", Var x) -> Some (x, Concept.Top)
  | Punary (a, Var x) -> Some (x, Concept.Name (Symbol.intern a))
  | Pbinary (p, Var x, Anon) -> Some (x, Concept.Exists (Role.of_string p))
  | Pbinary (p, Anon, Var x) ->
    Some (x, Concept.Exists (Role.inv (Role.of_string p)))
  | Punary (_, Anon) -> fail line "underscore not allowed here"
  | _ -> None

let as_role = function
  | Pbinary (p, Var x, Var y) when x <> y -> Some (x, y, Role.of_string p)
  | _ -> None

let axiom_of_line line toks =
  let lhs_toks, rhs_toks =
    let rec split acc = function
      | Arrow :: rest -> (List.rev acc, Some rest)
      | t :: rest -> split (t :: acc) rest
      | [] -> (List.rev acc, None)
    in
    split [] toks
  in
  match rhs_toks with
  | None -> (
    (* keyword axioms *)
    match parse_atom line lhs_toks with
    | Prefl r, [] -> Tbox.Reflexive (Role.of_string r)
    | Pirrefl r, [] -> Tbox.Irreflexive (Role.of_string r)
    | _ -> fail line "expected an axiom of the form lhs -> rhs")
  | Some rhs_toks -> (
    let lhs, lrest = parse_atom_list line lhs_toks in
    if lrest <> [] then fail line "junk after left-hand side";
    let rhs, rrest = parse_atom_list line rhs_toks in
    if rrest <> [] then fail line "junk after right-hand side";
    match (lhs, rhs) with
    | [ l ], [ Pfalse ] -> (
      match l with
      | Pbinary (p, Var x, Var y) when x = y ->
        Tbox.Irreflexive (Role.of_string p)
      | _ -> fail line "only ρ(x,x) -> false is a single-atom ⊥-axiom")
    | [ l1; l2 ], [ Pfalse ] -> (
      match (as_concept line l1, as_concept line l2) with
      | Some (x1, c1), Some (x2, c2) when x1 = x2 -> Tbox.Concept_disj (c1, c2)
      | _ -> (
        match (as_role l1, as_role l2) with
        | Some (x1, y1, r1), Some (x2, y2, r2) when x1 = x2 && y1 = y2 ->
          Tbox.Role_disj (r1, r2)
        | Some (x1, y1, r1), Some (x2, y2, r2) when x1 = y2 && y1 = x2 ->
          Tbox.Role_disj (r1, Role.inv r2)
        | _ -> fail line "malformed disjointness axiom"))
    | [ l ], [ r ] -> (
      match (l, r) with
      | Pbinary (p, Var x, Var y), _ when x = y -> (
        match r with
        | Pfalse -> Tbox.Irreflexive (Role.of_string p)
        | _ -> fail line "ρ(x,x) may only imply false")
      | _, Pbinary (p, Var x, Var y) when x = y && l = Punary ("top", Var x) ->
        Tbox.Reflexive (Role.of_string p)
      | _ -> (
        match (as_role l, as_role r) with
        | Some (x1, y1, r1), Some (x2, y2, r2) when x1 = x2 && y1 = y2 ->
          Tbox.Role_incl (r1, r2)
        | Some (x1, y1, r1), Some (x2, y2, r2) when x1 = y2 && y1 = x2 ->
          Tbox.Role_incl (r1, Role.inv r2)
        | _ -> (
          match (as_concept line l, as_concept line r) with
          | Some (x1, c1), Some (x2, c2) when x1 = x2 -> Tbox.Concept_incl (c1, c2)
          | _ -> fail line "malformed axiom")))
    | _ -> fail line "malformed axiom")

let ontology_of_string ?file s =
  with_source ?file s @@ fun () ->
  Fault.hit Fault.parse_tbox;
  let axioms =
    List.concat
      (List.mapi
         (fun i line ->
           let toks = tokenize_line (i + 1) line in
           if toks = [] then [] else [ axiom_of_line (i + 1) toks ])
         (lines_of s))
  in
  Tbox.make axioms

(* ------------------------------------------------------------------ *)
(* Query *)

let query_of_string ?file s =
  with_source ?file s @@ fun () ->
  Fault.hit Fault.parse_cq;
  let toks =
    List.concat (List.mapi (fun i line -> tokenize_line (i + 1) line) (lines_of s))
  in
  let fresh_counter = ref 0 in
  let fresh () =
    incr fresh_counter;
    Printf.sprintf "_fresh%d" !fresh_counter
  in
  match toks with
  | Ident _ :: Lpar :: _ -> (
    (* head: q(x,y) <- ... ; also allow q() for Boolean *)
    let rec answer_vars acc = function
      | Rpar :: Larrow :: rest -> (List.rev acc, rest)
      | Ident v :: (Comma :: _ as rest) -> answer_vars (v :: acc) (List.tl rest)
      | Ident v :: rest -> answer_vars (v :: acc) rest
      | _ -> fail 1 "malformed query head"
    in
    let head_rest =
      match toks with _ :: Lpar :: rest -> rest | _ -> assert false
    in
    let answer, body_toks = answer_vars [] head_rest in
    let patoms, rest = parse_atom_list 1 body_toks in
    if rest <> [] then fail 1 "junk after the query body";
    let var = function Var v -> v | Anon -> fresh () in
    let atoms =
      List.map
        (function
          | Punary (a, z) -> Cq.Unary (Symbol.intern a, var z)
          | Pbinary (p, y, z) -> Cq.Binary (Symbol.intern p, var y, var z)
          | Pfalse | Prefl _ | Pirrefl _ -> fail 1 "unexpected keyword in query")
        patoms
    in
    Cq.make ~answer atoms)
  | _ -> fail 1 "expected q(vars) <- atoms"

(* ------------------------------------------------------------------ *)
(* Data *)

let facts_of_string ?file s =
  with_source ?file s @@ fun () ->
  Fault.hit Fault.parse_abox;
  let facts = ref [] in
  List.iteri
    (fun i line ->
      let rec consume toks =
        if toks <> [] then begin
          let atom, rest = parse_atom (i + 1) toks in
          let fact =
            match atom with
            | Punary (p, Var c) ->
              Abox.Concept_assertion (Symbol.intern p, Symbol.intern c)
            | Pbinary (p, Var c, Var d) ->
              Abox.Role_assertion (Symbol.intern p, Symbol.intern c, Symbol.intern d)
            | _ -> fail (i + 1) "facts must be ground"
          in
          facts := fact :: !facts;
          consume rest
        end
      in
      consume (tokenize_line (i + 1) line))
    (lines_of s);
  List.rev !facts

let data_of_string ?file s = Abox.of_facts (facts_of_string ?file s)

(* ------------------------------------------------------------------ *)
(* Mappings and sources *)

(* one rule per line: Head(vars) <- src1(args), src2(args), ... *)
let mapping_of_string ?file s =
  with_source ?file s @@ fun () ->
  let module Ndl = Obda_ndl.Ndl in
  let rule_of_line line_no toks =
    match toks with
    | [] -> None
    | _ ->
      let rec split acc = function
        | Larrow :: rest -> (List.rev acc, rest)
        | t :: rest -> split (t :: acc) rest
        | [] -> fail line_no "expected <- in a mapping rule"
      in
      let head_toks, body_toks = split [] toks in
      let head, hrest = parse_atom line_no head_toks in
      if hrest <> [] then fail line_no "junk after the rule head";
      let head_pred, head_vars =
        match head with
        | Punary (p, Var x) -> (p, [ x ])
        | Pbinary (p, Var x, Var y) -> (p, [ x; y ])
        | _ -> fail line_no "mapping heads must be unary or binary atoms"
      in
      (* body atoms may have any arity (source relations) *)
      let counter = ref 0 in
      let term = function
        | Ident v -> Ndl.Var v
        | Underscore ->
          incr counter;
          Ndl.Var (Printf.sprintf "_m%d" !counter)
        | _ -> fail line_no "expected a variable or _"
      in
      let rec nary_atoms acc = function
        | [] -> List.rev acc
        | Ident name :: Lpar :: rest ->
          let rec args acc' = function
            | t :: Comma :: more -> args (term t :: acc') more
            | t :: Rpar :: more -> (List.rev (term t :: acc'), more)
            | _ -> fail line_no "malformed source atom in the rule body"
          in
          let ts, rest' = args [] rest in
          let atom = Ndl.Pred (Symbol.intern name, ts) in
          (match rest' with
          | Comma :: more -> nary_atoms (atom :: acc) more
          | [] -> List.rev (atom :: acc)
          | _ -> fail line_no "junk after the rule body")
        | _ -> fail line_no "expected a source atom"
      in
      let body = nary_atoms [] body_toks in
      Some (Obda_mapping.Mapping.rule head_pred head_vars body)
  in
  List.concat
    (List.mapi
       (fun i line ->
         match rule_of_line (i + 1) (tokenize_line (i + 1) line) with
         | Some r -> [ r ]
         | None -> [])
       (lines_of s))

(* n-ary ground rows; reuse the tokenizer but allow any arity *)
let source_of_string ?file s =
  with_source ?file s @@ fun () ->
  let src = Obda_mapping.Source.create () in
  List.iteri
    (fun i line ->
      let line_no = i + 1 in
      let rec consume toks =
        match toks with
        | [] -> ()
        | Ident name :: Lpar :: rest ->
          let rec args acc = function
            | Ident c :: Comma :: more -> args (c :: acc) more
            | Ident c :: Rpar :: more -> (List.rev (c :: acc), more)
            | _ -> fail line_no "malformed source row"
          in
          let row, rest' = args [] rest in
          Obda_mapping.Source.add_row src name row;
          consume rest'
        | _ -> fail line_no "expected relation(row,...)"
      in
      consume (tokenize_line line_no line))
    (lines_of s);
  src

(* ------------------------------------------------------------------ *)
(* Files *)

let read_file path =
  match open_in path with
  | exception Sys_error msg ->
    raise
      (Error.Obda_error
         (Error.Parse_error
            {
              loc = { Error.file = Some path; line = 0; column = None };
              msg;
              source_line = None;
            }))
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s

let ontology_of_file path = ontology_of_string ~file:path (read_file path)
let mapping_of_file path = mapping_of_string ~file:path (read_file path)
let source_of_file path = source_of_string ~file:path (read_file path)
let query_of_file path = query_of_string ~file:path (read_file path)
let data_of_file path = data_of_string ~file:path (read_file path)

(* ------------------------------------------------------------------ *)
(* Printers *)

let concept_str ~var = function
  | Concept.Top -> Printf.sprintf "top(%s)" var
  | Concept.Name a -> Printf.sprintf "%s(%s)" (Symbol.name a) var
  | Concept.Exists r ->
    if Role.is_inverse r then
      Printf.sprintf "%s(_,%s)" (Symbol.name r.Role.base) var
    else Printf.sprintf "%s(%s,_)" (Symbol.name r.Role.base) var

let role_str r x y =
  if Role.is_inverse r then
    Printf.sprintf "%s(%s,%s)" (Symbol.name r.Role.base) y x
  else Printf.sprintf "%s(%s,%s)" (Symbol.name r.Role.base) x y

let axiom_str = function
  | Tbox.Concept_incl (c, c') ->
    Printf.sprintf "%s -> %s" (concept_str ~var:"x" c) (concept_str ~var:"x" c')
  | Tbox.Concept_disj (c, c') ->
    Printf.sprintf "%s, %s -> false" (concept_str ~var:"x" c)
      (concept_str ~var:"x" c')
  | Tbox.Role_incl (r, r') ->
    Printf.sprintf "%s -> %s" (role_str r "x" "y") (role_str r' "x" "y")
  | Tbox.Role_disj (r, r') ->
    Printf.sprintf "%s, %s -> false" (role_str r "x" "y") (role_str r' "x" "y")
  | Tbox.Reflexive r -> Printf.sprintf "refl %s" (Role.to_string r)
  | Tbox.Irreflexive r -> Printf.sprintf "irrefl %s" (Role.to_string r)

let ontology_to_string t =
  String.concat "\n" (List.map axiom_str (Tbox.axioms t)) ^ "\n"

let query_to_string q =
  Printf.sprintf "q(%s) <- %s\n"
    (String.concat "," (Cq.answer_vars q))
    (String.concat ", "
       (List.map
          (fun atom ->
            match atom with
            | Cq.Unary (a, z) -> Printf.sprintf "%s(%s)" (Symbol.name a) z
            | Cq.Binary (p, y, z) ->
              Printf.sprintf "%s(%s,%s)" (Symbol.name p) y z)
          (Cq.atoms q)))

let facts_to_string facts =
  String.concat "\n"
    (List.map
       (fun fact ->
         match fact with
         | Abox.Concept_assertion (p, c) ->
           Printf.sprintf "%s(%s)." (Symbol.name p) (Symbol.name c)
         | Abox.Role_assertion (p, c, d) ->
           Printf.sprintf "%s(%s,%s)." (Symbol.name p) (Symbol.name c)
             (Symbol.name d))
       facts)
  ^ "\n"

let data_to_string a = facts_to_string (Abox.to_facts a)
