(* Content-addressed LRU cache for NDL rewritings. *)

module Ndl = Obda_ndl.Ndl
module Fault = Obda_runtime.Fault

type entry = {
  key : string;
  query : Ndl.query;
  weight : int;
  mutable prev : entry option;  (* towards the MRU end *)
  mutable next : entry option;  (* towards the LRU end *)
}

type t = {
  tbl : (string, entry) Hashtbl.t;
  mutable mru : entry option;
  mutable lru : entry option;
  max_entries : int option;
  max_weight : int option;
  mutable weight : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable relinks : int;
      (* recency-list splices performed by [touch]; a hit on the entry
         already at the MRU position must not relink (the fast path) *)
}

let create ?max_entries ?max_weight () =
  let check name = function
    | Some n when n < 1 ->
      invalid_arg (Printf.sprintf "Cache.create: %s must be >= 1" name)
    | _ -> ()
  in
  check "max_entries" max_entries;
  check "max_weight" max_weight;
  {
    tbl = Hashtbl.create 64;
    mru = None;
    lru = None;
    max_entries;
    max_weight;
    weight = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    relinks = 0;
  }

let length t = Hashtbl.length t.tbl
let weight t = t.weight
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let relinks t = t.relinks
let mem t key = Hashtbl.mem t.tbl key

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.mru <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.lru <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.prev <- None;
  e.next <- t.mru;
  (match t.mru with Some m -> m.prev <- Some e | None -> t.lru <- Some e);
  t.mru <- Some e

(* [t.mru != Some e] would compare against a freshly boxed [Some], which is
   physically unequal every time — the fast path would never fire.  Match
   and compare the entries themselves. *)
let touch t e =
  match t.mru with
  | Some m when m == e -> ()
  | _ ->
    unlink t e;
    push_front t e;
    t.relinks <- t.relinks + 1

let over_bounds t =
  (match t.max_entries with
  | Some n -> Hashtbl.length t.tbl > n
  | None -> false)
  || match t.max_weight with Some w -> t.weight > w | None -> false

(* Evict from the LRU end until within bounds.  The freshly inserted entry
   is never evicted, so a single oversized rewriting still gets cached (and
   will be the first to go when the next insertion arrives). *)
let rec evict_over_bounds t ~keep =
  if over_bounds t then
    match t.lru with
    | Some e when e != keep ->
      unlink t e;
      Hashtbl.remove t.tbl e.key;
      t.weight <- t.weight - e.weight;
      t.evictions <- t.evictions + 1;
      evict_over_bounds t ~keep
    | _ -> ()

let find_or_add t ~key build =
  Fault.hit Fault.service_cache;
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    t.hits <- t.hits + 1;
    touch t e;
    (e.query, `Hit)
  | None ->
    (* count the miss only once [build] has succeeded: a failed build adds
       no entry, so it must not skew the hit rate *)
    let query = build () in
    t.misses <- t.misses + 1;
    let e = { key; query; weight = Ndl.size query; prev = None; next = None } in
    Hashtbl.replace t.tbl key e;
    push_front t e;
    t.weight <- t.weight + e.weight;
    evict_over_bounds t ~keep:e;
    (query, `Miss)

let keys_mru_first t =
  let rec go acc = function
    | None -> List.rev acc
    | Some e -> go (e.key :: acc) e.next
  in
  go [] t.mru
