type t = int

(* The interner is global mutable state shared by every domain that parses
   or prints: the network server hands concurrent connections to worker
   domains, so the string<->id maps are guarded by a mutex.  The hot paths
   of evaluation (compare/equal/hash on the int ids) never touch the
   tables and stay lock-free. *)
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
let names : (int, string) Hashtbl.t = Hashtbl.create 1024
let next = ref 0

let intern s =
  with_lock (fun () ->
      match Hashtbl.find_opt table s with
      | Some i -> i
      | None ->
        let i = !next in
        incr next;
        Hashtbl.add table s i;
        Hashtbl.add names i s;
        i)

let name i = with_lock (fun () -> Hashtbl.find names i)

(* inlined interning: [with_lock] is not reentrant *)
let fresh prefix =
  with_lock (fun () ->
      let rec try_at n =
        let candidate = prefix ^ "#" ^ string_of_int n in
        if Hashtbl.mem table candidate then try_at (n + 1)
        else begin
          let i = !next in
          incr next;
          Hashtbl.add table candidate i;
          Hashtbl.add names i candidate;
          i
        end
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
