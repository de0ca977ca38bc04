type t = int

(* The interner is global mutable state shared by every domain that parses
   or prints: the network server hands concurrent connections to worker
   domains, so interning is guarded by a mutex.  Names are read without it,
   from an id-indexed array: a writer fills a slot of the published array
   when it has room, and otherwise publishes a copy twice the size, so a
   published array's filled slots never change.  The hot paths of
   evaluation (compare/equal/hash on the int ids) never touch the tables
   and stay lock-free. *)
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

let table : (string, int) Hashtbl.t = Hashtbl.create 1024

(* A slot no name has filled yet: compared physically, so no interned
   string, the empty one included, is mistaken for it. *)
let unfilled = String.make 1 '?'
let names = Atomic.make (Array.make 1024 unfilled)
let next = ref 0

(* Under the lock: give [s] the next id.  The slot is written before the
   array holding it is published, and [Atomic.set] publishes even an
   array already current, so a reader that sees the id's array sees the
   name. *)
let add_locked s =
  let i = !next in
  let current = Atomic.get names in
  let arr =
    if i < Array.length current then current
    else begin
      let bigger = Array.make (2 * Array.length current) unfilled in
      Array.blit current 0 bigger 0 i;
      bigger
    end
  in
  arr.(i) <- s;
  Atomic.set names arr;
  incr next;
  Hashtbl.add table s i;
  i

let intern s =
  with_lock (fun () ->
      match Hashtbl.find_opt table s with
      | Some i -> i
      | None -> add_locked s)

let name i =
  let arr = Atomic.get names in
  let s = if i >= 0 && i < Array.length arr then arr.(i) else unfilled in
  if s != unfilled then s
  else
    (* an id this domain has not seen published, or none at all *)
    with_lock (fun () ->
        if i < 0 || i >= !next then raise Not_found
        else (Atomic.get names).(i))

(* inlined interning: [with_lock] is not reentrant *)
let fresh prefix =
  with_lock (fun () ->
      let rec try_at n =
        let candidate = prefix ^ "#" ^ string_of_int n in
        if Hashtbl.mem table candidate then try_at (n + 1)
        else add_locked candidate
      in
      try_at !next)

let unsafe_of_int i = i
let compare = Int.compare
let equal = Int.equal
let hash = Hashtbl.hash
let pp ppf i = Format.pp_print_string ppf (name i)
let count () = with_lock (fun () -> !next)

module Set = Set.Make (Int)
module Map = Map.Make (Int)
module Tbl = Hashtbl.Make (Int)
