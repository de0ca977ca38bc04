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

(* Per-predicate storage: one flat relation per predicate and arity, in
   [unary] or [binary]; a binary relation maintains its [0] and [1]
   indexes, the adjacency in both directions.  A predicate maps to a
   relation only while it holds facts.  Each relation is stamped with the
   epoch of the one record that may write it in place. *)
type stamped = { sepoch : int; rel : Relation.t }

type t = {
  mutable unary : stamped Symbol.Tbl.t;
  mutable binary : stamped Symbol.Tbl.t;
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

let table a arity = if arity = 1 then a.unary else a.binary

let relation a p ~arity =
  if arity < 1 || arity > 2 then None
  else Option.map (fun s -> s.rel) (Symbol.Tbl.find_opt (table a arity) p)

let sym = Symbol.unsafe_of_int

let mem a p row =
  match relation a p ~arity:(Array.length row) with
  | Some r -> Relation.find r row 0 >= 0
  | None -> false

let mem_unary a p (c : const) = mem a p [| (c :> int) |]
let mem_binary a p (c : const) (d : const) = mem a p [| (c :> int); (d :> int) |]

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
    let count _ { rel = r; _ } =
      for k = 0 to (r.size * r.arity) - 1 do
        ignore (bump occ (sym r.data.(k)))
      done
    in
    Symbol.Tbl.iter count a.unary;
    Symbol.Tbl.iter count a.binary;
    a.occurrences <- Some occ

(* A binary relation maintains the adjacency indexes from its creation. *)
let fresh_relation arity =
  let r = Relation.create arity in
  if arity = 2 then begin
    ignore (Relation.index r [| 0 |]);
    ignore (Relation.index r [| 1 |])
  end;
  r

(* [p]'s relation, writable in place: copied first unless [a] owns it. *)
let own a p arity =
  own_tables a;
  let tbl = table a arity in
  match Symbol.Tbl.find_opt tbl p with
  | Some s when s.sepoch = a.epoch -> s.rel
  | found ->
    let rel =
      match found with
      | Some s -> Relation.copy s.rel
      | None -> fresh_relation arity
    in
    Symbol.Tbl.replace tbl p { sepoch = a.epoch; rel };
    rel

(* Every mutator tests for effectiveness on the (possibly shared) tables
   first, so a no-op add or remove copies nothing.  An argument position of
   an atom gained or lost changes ind(A) when its count leaves or reaches
   zero. *)

let add a p row =
  if not (mem a p row) then begin
    ignore (Relation.add (own a p (Array.length row)) row 0);
    a.atom_count <- a.atom_count + 1;
    a.revision <- a.revision + 1;
    let occ = Option.get a.occurrences in
    Array.iter
      (fun c ->
        if bump occ (sym c) then begin
          a.inds <- Symbol.Set.add (sym c) a.inds;
          a.num_inds <- a.num_inds + 1
        end)
      row
  end

let remove a p row =
  mem a p row
  && begin
    let r = own a p (Array.length row) in
    ignore (Relation.remove r row 0);
    if r.size = 0 then Symbol.Tbl.remove (table a (Array.length row)) p;
    a.atom_count <- a.atom_count - 1;
    a.revision <- a.revision + 1;
    let occ = Option.get a.occurrences in
    Array.iter
      (fun c ->
        let n = Symbol.Tbl.find occ (sym c) in
        decr n;
        if !n = 0 then begin
          Symbol.Tbl.remove occ (sym c);
          a.inds <- Symbol.Set.remove (sym c) a.inds;
          a.num_inds <- a.num_inds - 1
        end)
      row;
    true
  end

let add_unary a p (c : const) = add a p [| (c :> int) |]
let add_binary a p (c : const) (d : const) = add a p [| (c :> int); (d :> int) |]

let add_role a (r : Role.t) c d =
  if Role.is_inverse r then add_binary a r.Role.base d c
  else add_binary a r.Role.base c d

let remove_unary a p (c : const) = remove a p [| (c :> int) |]

let remove_binary a p (c : const) (d : const) =
  remove a p [| (c :> int); (d :> int) |]

let add_fact a = function
  | Concept_assertion (p, c) -> add_unary a p c
  | Role_assertion (p, c, d) -> add_binary a p c d

let remove_fact a = function
  | Concept_assertion (p, c) -> remove_unary a p c
  | Role_assertion (p, c, d) -> remove_binary a p c d

let individuals a = Symbol.Set.elements a.inds
let num_individuals a = a.num_inds
let num_atoms a = a.atom_count

let preds tbl =
  Symbol.Tbl.fold (fun p _ acc -> p :: acc) tbl [] |> List.sort Symbol.compare

let unary_preds a = preds a.unary
let binary_preds a = preds a.binary

(* Fold over the rows of [p]'s relation of [arity], as buffer and offset. *)
let fold_rows f a p arity init =
  match relation a p ~arity with
  | Some r ->
    let acc = ref init in
    for id = 0 to r.size - 1 do
      acc := f r.data (id * arity) !acc
    done;
    !acc
  | None -> init

let unary_members a p = fold_rows (fun d o acc -> sym d.(o) :: acc) a p 1 []

let binary_members a p =
  fold_rows (fun d o acc -> (sym d.(o), sym d.(o + 1)) :: acc) a p 2 []

(* The other end of every row whose value at [pos] is [c]: a walk of the
   maintained index's chain. *)
let adjacent a p pos c =
  match relation a p ~arity:2 with
  | Some r ->
    let ix = Option.get (Relation.find_index r [| pos |]) in
    let rec walk id acc =
      if id < 0 then acc
      else walk ix.next.(id) (sym r.data.((2 * id) + 1 - pos) :: acc)
    in
    walk (Relation.probe ix r [| (c : const :> int) |]) []
  | None -> []

let successors a p c = adjacent a p 0 c
let predecessors a p c = adjacent a p 1 c

let role_successors a (r : Role.t) c =
  if Role.is_inverse r then predecessors a r.Role.base c
  else successors a r.Role.base c

let to_facts a =
  let unary =
    Symbol.Tbl.fold
      (fun p _ acc ->
        fold_rows (fun d o acc -> Concept_assertion (p, sym d.(o)) :: acc) a p 1 acc)
      a.unary []
  in
  Symbol.Tbl.fold
    (fun p _ acc ->
      fold_rows
        (fun d o acc -> Role_assertion (p, sym d.(o), sym d.(o + 1)) :: acc)
        a p 2 acc)
    a.binary unary

let of_facts facts =
  let a = create () in
  List.iter (add_fact a) facts;
  a

let copy a =
  let epoch = fresh_epoch () in
  let copy_table tbl =
    let out = Symbol.Tbl.create (Symbol.Tbl.length tbl) in
    Symbol.Tbl.iter
      (fun p s -> Symbol.Tbl.add out p { sepoch = epoch; rel = Relation.copy s.rel })
      tbl;
    out
  in
  {
    a with
    unary = copy_table a.unary;
    binary = copy_table a.binary;
    epoch;
    tables_epoch = epoch;
    occurrences = None;
  }

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

let serialize a =
  let sections = [ a.unary; a.binary ] in
  (* every length is known up front, so the atoms and then the blob are
     each written once into bytes of their exact size *)
  let atoms_len =
    List.fold_left
      (fun n tbl ->
        Symbol.Tbl.fold
          (fun _ { rel = r; _ } n -> n + 8 + (4 * r.size * r.arity))
          tbl (n + 4))
      0 sections
  in
  let atoms = Bytes.create atoms_len and pos = ref 0 in
  let put_u32 b n =
    Bytes.set_int32_le b !pos (Int32.of_int n);
    pos := !pos + 4
  in
  (* One pass over the canonical atom stream — the relations in predicate
     order, unary first, each with its rows in value order — numbers every
     symbol in first-use order as it writes the atoms; the dictionary goes
     in front of them. *)
  let index = Symbol.Tbl.create (max 64 a.num_inds) in
  let dict_rev = ref [] and dict_len = ref 0 in
  let intern s =
    match Symbol.Tbl.find_opt index s with
    | Some i -> i
    | None ->
      let i = Symbol.Tbl.length index in
      let name = Symbol.name s in
      Symbol.Tbl.add index s i;
      dict_rev := name :: !dict_rev;
      dict_len := !dict_len + 4 + String.length name;
      i
  in
  List.iter
    (fun tbl ->
      let ps = preds tbl in
      put_u32 atoms (List.length ps);
      List.iter
        (fun p ->
          let r = (Symbol.Tbl.find tbl p).rel in
          put_u32 atoms (intern p);
          put_u32 atoms r.size;
          Array.iter
            (fun id ->
              for k = 0 to r.arity - 1 do
                put_u32 atoms (intern (sym r.data.((id * r.arity) + k)))
              done)
            (Relation.sorted_ids r))
        ps)
    sections;
  let header = String.length magic + 1 in
  let blob = Bytes.create (header + 4 + !dict_len + atoms_len) in
  Bytes.blit_string magic 0 blob 0 (String.length magic);
  Bytes.set blob (String.length magic) (Char.chr format_version);
  pos := header;
  put_u32 blob (Symbol.Tbl.length index);
  List.iter
    (fun name ->
      put_u32 blob (String.length name);
      Bytes.blit_string name 0 blob !pos (String.length name);
      pos := !pos + String.length name)
    (List.rev !dict_rev);
  Bytes.blit atoms 0 blob !pos atoms_len;
  Bytes.unsafe_to_string blob

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
  List.iter
    (fun (arity, what) ->
      let count = what ^ " predicate count" and pred = what ^ " predicate" in
      let members = what ^ " member count" and member = what ^ " member" in
      for _ = 1 to get_u32 count do
        let p = sym pred in
        for _ = 1 to get_u32 members do
          add a p (Array.init arity (fun _ -> (sym member :> int)))
        done
      done)
    [ (1, "unary"); (2, "binary") ];
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
