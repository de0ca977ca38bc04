open Obda_syntax
open Obda_ontology

type const = Symbol.t

type fact =
  | Concept_assertion of Symbol.t * const
  | Role_assertion of Symbol.t * const * const

let pp_fact ppf = function
  | Concept_assertion (a, c) -> Format.fprintf ppf "%a(%a)" Symbol.pp a Symbol.pp c
  | Role_assertion (p, c, d) ->
    Format.fprintf ppf "%a(%a,%a)" Symbol.pp p Symbol.pp c Symbol.pp d

(* Per-predicate storage.  Unary: set of constants.  Binary: set of pairs
   plus forward and backward adjacency.  Each relation is stamped with the
   epoch of the one record that may write it in place. *)
type unary_rel = { uepoch : int; members : unit Symbol.Tbl.t }

type binary_rel = {
  bepoch : int;
  pairs : (const * const, unit) Hashtbl.t;
  fwd : const list Symbol.Tbl.t;
  bwd : const list Symbol.Tbl.t;
}

type t = {
  mutable unary : unary_rel Symbol.Tbl.t;
  mutable binary : binary_rel Symbol.Tbl.t;
  mutable epoch : int;
      (* copy-on-write: this record writes in place only the predicate
         tables and relations stamped with its epoch, and [snapshot] gives
         both records fresh ones *)
  mutable tables_epoch : int;  (* the stamp of [unary] and [binary] *)
  mutable inds : Symbol.Set.t;  (* ind(A); persistent, so snapshots share it *)
  mutable num_inds : int;
  mutable occurrences : int ref Symbol.Tbl.t option;
      (* argument positions held by each individual, the reference count
         behind [inds]; owned by the one record that writes it, so a
         snapshot starts without and counts afresh on its first write *)
  mutable atom_count : int;
  mutable revision : int;
      (* bumped on every effective mutation: change detection for consumers
         that cache work derived from the instance (consistency checks,
         materialisations) *)
}

let epochs = Atomic.make 0
let fresh_epoch () = Atomic.fetch_and_add epochs 1

let create () =
  let epoch = fresh_epoch () in
  {
    unary = Symbol.Tbl.create 16;
    binary = Symbol.Tbl.create 16;
    epoch;
    tables_epoch = epoch;
    inds = Symbol.Set.empty;
    num_inds = 0;
    occurrences = Some (Symbol.Tbl.create 64);
    atom_count = 0;
    revision = 0;
  }

let revision a = a.revision

(* O(1) freeze: neither record's epoch now matches any table, so whichever
   side writes a predicate first pays for copying it. *)
let snapshot a =
  a.epoch <- fresh_epoch ();
  { a with epoch = fresh_epoch (); occurrences = None }

let mem_unary a p c =
  match Symbol.Tbl.find_opt a.unary p with
  | Some rel -> Symbol.Tbl.mem rel.members c
  | None -> false

let mem_binary a p c d =
  match Symbol.Tbl.find_opt a.binary p with
  | Some rel -> Hashtbl.mem rel.pairs (c, d)
  | None -> false

let mem_role a (r : Role.t) c d =
  if Role.is_inverse r then mem_binary a r.Role.base d c
  else mem_binary a r.Role.base c d

let mem_fact a = function
  | Concept_assertion (p, c) -> mem_unary a p c
  | Role_assertion (p, c, d) -> mem_binary a p c d

(* One more argument position held by [c]; [true] when it is [c]'s first. *)
let bump occ c =
  match Symbol.Tbl.find_opt occ c with
  | Some n ->
    incr n;
    false
  | None ->
    Symbol.Tbl.add occ c (ref 1);
    true

(* The first write after a [snapshot] copies the predicate tables, not the
   relations they hold; on a snapshot it also counts the occurrences it
   will maintain from then on. *)
let own_tables a =
  if a.tables_epoch <> a.epoch then begin
    a.unary <- Symbol.Tbl.copy a.unary;
    a.binary <- Symbol.Tbl.copy a.binary;
    a.tables_epoch <- a.epoch
  end;
  match a.occurrences with
  | Some _ -> ()
  | None ->
    let occ = Symbol.Tbl.create (max 64 a.num_inds) in
    let count c = ignore (bump occ c) in
    Symbol.Tbl.iter
      (fun _ rel -> Symbol.Tbl.iter (fun c () -> count c) rel.members)
      a.unary;
    Symbol.Tbl.iter
      (fun _ rel ->
        Hashtbl.iter
          (fun (c, d) () ->
            count c;
            count d)
          rel.pairs)
      a.binary;
    a.occurrences <- Some occ

(* [p]'s relation, writable in place: copied first unless [a] owns it. *)
let own_unary a p =
  own_tables a;
  match Symbol.Tbl.find_opt a.unary p with
  | Some rel when rel.uepoch = a.epoch -> rel.members
  | found ->
    let members =
      match found with
      | Some rel -> Symbol.Tbl.copy rel.members
      | None -> Symbol.Tbl.create 64
    in
    Symbol.Tbl.replace a.unary p { uepoch = a.epoch; members };
    members

let own_binary a p =
  own_tables a;
  match Symbol.Tbl.find_opt a.binary p with
  | Some rel when rel.bepoch = a.epoch -> rel
  | found ->
    let rel =
      match found with
      | Some rel ->
        {
          bepoch = a.epoch;
          pairs = Hashtbl.copy rel.pairs;
          fwd = Symbol.Tbl.copy rel.fwd;
          bwd = Symbol.Tbl.copy rel.bwd;
        }
      | None ->
        {
          bepoch = a.epoch;
          pairs = Hashtbl.create 64;
          fwd = Symbol.Tbl.create 64;
          bwd = Symbol.Tbl.create 64;
        }
    in
    Symbol.Tbl.replace a.binary p rel;
    rel

(* One argument position of an atom gained or lost by [c]; ind(A) changes
   when its count leaves or reaches zero.  Called after [own_tables]. *)
let occur a c =
  if bump (Option.get a.occurrences) c then begin
    a.inds <- Symbol.Set.add c a.inds;
    a.num_inds <- a.num_inds + 1
  end

let vacate a c =
  let occ = Option.get a.occurrences in
  let n = Symbol.Tbl.find occ c in
  decr n;
  if !n = 0 then begin
    Symbol.Tbl.remove occ c;
    a.inds <- Symbol.Set.remove c a.inds;
    a.num_inds <- a.num_inds - 1
  end

(* Every mutator tests for effectiveness on the (possibly shared) tables
   first, so a no-op add or remove copies nothing. *)

let add_unary a p c =
  if not (mem_unary a p c) then begin
    Symbol.Tbl.add (own_unary a p) c ();
    a.atom_count <- a.atom_count + 1;
    a.revision <- a.revision + 1;
    occur a c
  end

let add_binary a p c d =
  if not (mem_binary a p c d) then begin
    let rel = own_binary a p in
    Hashtbl.add rel.pairs (c, d) ();
    let push tbl k v =
      let cur = Option.value ~default:[] (Symbol.Tbl.find_opt tbl k) in
      Symbol.Tbl.replace tbl k (v :: cur)
    in
    push rel.fwd c d;
    push rel.bwd d c;
    a.atom_count <- a.atom_count + 1;
    a.revision <- a.revision + 1;
    occur a c;
    occur a d
  end

let add_role a (r : Role.t) c d =
  if Role.is_inverse r then add_binary a r.Role.base d c
  else add_binary a r.Role.base c d

let remove_unary a p c =
  if mem_unary a p c then begin
    Symbol.Tbl.remove (own_unary a p) c;
    a.atom_count <- a.atom_count - 1;
    a.revision <- a.revision + 1;
    vacate a c;
    true
  end
  else false

let remove_binary a p c d =
  if mem_binary a p c d then begin
    let rel = own_binary a p in
    Hashtbl.remove rel.pairs (c, d);
    let drop tbl k v =
      let cur = Option.value ~default:[] (Symbol.Tbl.find_opt tbl k) in
      Symbol.Tbl.replace tbl k (List.filter (fun x -> not (Symbol.equal x v)) cur)
    in
    drop rel.fwd c d;
    drop rel.bwd d c;
    a.atom_count <- a.atom_count - 1;
    a.revision <- a.revision + 1;
    vacate a c;
    vacate a d;
    true
  end
  else false

let add_fact a = function
  | Concept_assertion (p, c) -> add_unary a p c
  | Role_assertion (p, c, d) -> add_binary a p c d

let remove_fact a = function
  | Concept_assertion (p, c) -> remove_unary a p c
  | Role_assertion (p, c, d) -> remove_binary a p c d

let individuals a = Symbol.Set.elements a.inds
let num_individuals a = a.num_inds
let num_atoms a = a.atom_count

let unary_preds a =
  Symbol.Tbl.fold (fun p _ acc -> p :: acc) a.unary [] |> List.sort Symbol.compare

let binary_preds a =
  Symbol.Tbl.fold (fun p _ acc -> p :: acc) a.binary []
  |> List.sort Symbol.compare

let unary_members a p =
  match Symbol.Tbl.find_opt a.unary p with
  | Some rel -> Symbol.Tbl.fold (fun c () acc -> c :: acc) rel.members []
  | None -> []

let binary_members a p =
  match Symbol.Tbl.find_opt a.binary p with
  | Some rel -> Hashtbl.fold (fun pr () acc -> pr :: acc) rel.pairs []
  | None -> []

let successors a p c =
  match Symbol.Tbl.find_opt a.binary p with
  | Some rel -> Option.value ~default:[] (Symbol.Tbl.find_opt rel.fwd c)
  | None -> []

let predecessors a p c =
  match Symbol.Tbl.find_opt a.binary p with
  | Some rel -> Option.value ~default:[] (Symbol.Tbl.find_opt rel.bwd c)
  | None -> []

let role_successors a (r : Role.t) c =
  if Role.is_inverse r then predecessors a r.Role.base c
  else successors a r.Role.base c

let to_facts a =
  let unary =
    Symbol.Tbl.fold
      (fun p rel acc ->
        Symbol.Tbl.fold
          (fun c () acc -> Concept_assertion (p, c) :: acc)
          rel.members acc)
      a.unary []
  in
  Symbol.Tbl.fold
    (fun p rel acc ->
      Hashtbl.fold
        (fun (c, d) () acc -> Role_assertion (p, c, d) :: acc)
        rel.pairs acc)
    a.binary unary

let of_facts facts =
  let a = create () in
  List.iter
    (function
      | Concept_assertion (p, c) -> add_unary a p c
      | Role_assertion (p, c, d) -> add_binary a p c d)
    facts;
  a

let copy a = of_facts (to_facts a)

let pp ppf a =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
    pp_fact ppf (to_facts a)

(* ------------------------------------------------------------------ *)
(* Binary serialization.

   Symbols are process-local interned integers, so the wire format carries
   its own dictionary: every symbol used by the instance is written once as
   a length-prefixed string, and atoms reference dictionary indices.  The
   output is canonical — predicates and members are sorted — so equal
   instances serialize to equal bytes regardless of insertion order.
   [Marshal] would be both unsafe (symbols do not survive a process
   boundary) and non-canonical. *)

let magic = "OBAX"
let format_version = 1

let put_u32 buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let serialize a =
  let unary =
    List.map
      (fun p -> (p, List.sort Symbol.compare (unary_members a p)))
      (unary_preds a)
  in
  let binary =
    List.map
      (fun p -> (p, List.sort compare (binary_members a p)))
      (binary_preds a)
  in
  (* dictionary in first-use order over the sorted atom stream *)
  let index = Hashtbl.create 64 in
  let dict_rev = ref [] in
  let intern s =
    match Hashtbl.find_opt index s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length index in
      Hashtbl.add index s i;
      dict_rev := s :: !dict_rev;
      i
  in
  List.iter
    (fun (p, cs) ->
      ignore (intern p);
      List.iter (fun c -> ignore (intern c)) cs)
    unary;
  List.iter
    (fun (p, pairs) ->
      ignore (intern p);
      List.iter
        (fun (c, d) ->
          ignore (intern c);
          ignore (intern d))
        pairs)
    binary;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr format_version);
  put_u32 buf (Hashtbl.length index);
  List.iter
    (fun s ->
      let name = Symbol.name s in
      put_u32 buf (String.length name);
      Buffer.add_string buf name)
    (List.rev !dict_rev);
  put_u32 buf (List.length unary);
  List.iter
    (fun (p, cs) ->
      put_u32 buf (intern p);
      put_u32 buf (List.length cs);
      List.iter (fun c -> put_u32 buf (intern c)) cs)
    unary;
  put_u32 buf (List.length binary);
  List.iter
    (fun (p, pairs) ->
      put_u32 buf (intern p);
      put_u32 buf (List.length pairs);
      List.iter
        (fun (c, d) ->
          put_u32 buf (intern c);
          put_u32 buf (intern d))
        pairs)
    binary;
  Buffer.contents buf

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

let deserialize s =
  let pos = ref 0 in
  let need n what =
    if !pos + n > String.length s then
      corrupt "truncated ABox blob: %s at offset %d" what !pos
  in
  let get_u32 what =
    need 4 what;
    let b i = Char.code s.[!pos + i] in
    let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    pos := !pos + 4;
    if v < 0 then corrupt "negative length for %s" what;
    v
  in
  let get_str n what =
    need n what;
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  need (String.length magic + 1) "header";
  if String.sub s 0 (String.length magic) <> magic then
    corrupt "bad ABox magic (not an OBAX blob)";
  pos := String.length magic;
  let version = Char.code s.[!pos] in
  incr pos;
  if version <> format_version then
    corrupt "unsupported ABox format version %d (expected %d)" version
      format_version;
  let nsyms = get_u32 "dictionary size" in
  (* every entry starts with a 4-byte length: reject a count the bytes left
     cannot hold before it sizes an allocation *)
  let left = String.length s - !pos in
  if nsyms > left / 4 then
    corrupt "dictionary size %d exceeds the %d bytes left" nsyms left;
  let dict =
    Array.init nsyms (fun i ->
        let len = get_u32 "dictionary entry length" in
        Symbol.intern (get_str len (Printf.sprintf "dictionary entry %d" i)))
  in
  let sym what =
    let i = get_u32 what in
    if i >= nsyms then corrupt "dictionary index %d out of range for %s" i what;
    dict.(i)
  in
  let a = create () in
  let n_unary = get_u32 "unary predicate count" in
  for _ = 1 to n_unary do
    let p = sym "unary predicate" in
    let n = get_u32 "unary member count" in
    for _ = 1 to n do
      add_unary a p (sym "unary member")
    done
  done;
  let n_binary = get_u32 "binary predicate count" in
  for _ = 1 to n_binary do
    let p = sym "binary predicate" in
    let n = get_u32 "binary member count" in
    for _ = 1 to n do
      let c = sym "binary member" in
      let d = sym "binary member" in
      add_binary a p c d
    done
  done;
  if !pos <> String.length s then
    corrupt "trailing garbage after ABox blob (offset %d of %d)" !pos
      (String.length s);
  a

(* ------------------------------------------------------------------ *)
(* Ontology interaction *)

(* The basic concepts directly witnessed at [c] by the data. *)
let seed_concepts tbox a c =
  let from_unary =
    List.filter_map
      (fun p -> if mem_unary a p c then Some (Concept.Name p) else None)
      (unary_preds a)
  in
  let from_binary =
    List.concat_map
      (fun p ->
        let out = if successors a p c <> [] then [ Concept.Exists (Role.make p) ] else [] in
        let inc =
          if predecessors a p c <> [] then
            [ Concept.Exists (Role.inv (Role.make p)) ]
          else []
        in
        out @ inc)
      (binary_preds a)
  in
  let from_refl =
    List.concat_map
      (fun r ->
        if Tbox.reflexive tbox r then
          [ Concept.Exists r; Concept.Exists (Role.inv r) ]
        else [])
      (Tbox.roles tbox)
  in
  (Concept.Top :: from_unary) @ from_binary @ from_refl

let satisfies_concept tbox a c tau =
  List.exists
    (fun seed -> Tbox.subsumes tbox ~sub:seed ~sup:tau)
    (seed_concepts tbox a c)

(* T,A ⊨ ρ(c,d)? — ground role membership under the role hierarchy. *)
let satisfies_role tbox a rho c d =
  (c = d && Tbox.reflexive tbox rho)
  || List.exists (fun sub -> mem_role a sub c d) (Tbox.subroles_of tbox rho)
  || mem_role a rho c d

let complete tbox a =
  let out = copy a in
  let inds = individuals a in
  (* unary closure *)
  List.iter
    (fun c ->
      let seeds = seed_concepts tbox a c in
      List.iter
        (fun seed ->
          List.iter
            (fun sup ->
              match sup with
              | Concept.Name p -> add_unary out p c
              | Concept.Top | Concept.Exists _ -> ())
            (Tbox.superconcepts_of tbox seed))
        seeds)
    inds;
  (* binary closure under the role hierarchy *)
  List.iter
    (fun p ->
      List.iter
        (fun (c, d) ->
          List.iter
            (fun sup ->
              if not (Role.equal sup (Role.make p)) then add_role out sup c d)
            (Tbox.superroles_of tbox (Role.make p)))
        (binary_members a p))
    (binary_preds a);
  (* reflexive roles: loops at every individual *)
  List.iter
    (fun r ->
      if Tbox.reflexive tbox r && not (Role.is_inverse r) then
        List.iter (fun c -> add_role out r c c) inds)
    (Tbox.roles tbox);
  out

let is_complete tbox a =
  let completed = complete tbox a in
  num_atoms completed = num_atoms a

let consistent tbox a =
  (* only a ⊥-axiom can clash: without one, ind(A) is not even listed *)
  (not (Tbox.has_bottom tbox))
  ||
  let inds = individuals a in
  let concept_clash =
    List.exists
      (fun (tau, tau') ->
        List.exists
          (fun c ->
            satisfies_concept tbox a c tau && satisfies_concept tbox a c tau')
          inds)
      (Tbox.disjoint_concept_axioms tbox)
  in
  let role_pairs rho =
    List.concat_map
      (fun sub ->
        let base = sub.Role.base in
        List.map
          (fun (c, d) -> if Role.is_inverse sub then (d, c) else (c, d))
          (binary_members a base))
      (Tbox.subroles_of tbox rho)
  in
  let role_clash =
    List.exists
      (fun (rho, rho') ->
        (* both reflexive is also a clash on any individual *)
        (Tbox.reflexive tbox rho && Tbox.reflexive tbox rho' && inds <> [])
        || List.exists (fun (c, d) -> satisfies_role tbox a rho' c d) (role_pairs rho))
      (Tbox.disjoint_role_axioms tbox)
  in
  let irrefl_clash =
    List.exists
      (fun rho ->
        (Tbox.reflexive tbox rho && inds <> [])
        || List.exists (fun c -> satisfies_role tbox a rho c c) inds)
      (Tbox.irreflexive_axioms tbox)
  in
  not (concept_clash || role_clash || irrefl_clash)
