open Obda_syntax

(* Row hashes: an odd-multiplier fold over the values, then a xor-shift
   finaliser that brings the high bits down to the slot bits.  Symbol ids
   are small dense ints, so the finaliser matters. *)
let hash_seed = 0x2545F4914F6CDD1D
let[@inline] hash_step h v = (h + v) * 0x3f58476d1ce4e5b9

let[@inline] hash_finish h =
  let h = (h lxor (h lsr 31)) * 0x14d049bb133111eb in
  (h lxor (h lsr 29)) land max_int

(* The hash of [n] values from [a.(i)]; a key buffer and the row it
   matches hash alike. *)
let hash_values a i n =
  let h = ref hash_seed in
  for k = i to i + n - 1 do
    h := hash_step !h a.(k)
  done;
  hash_finish !h

let rec values_equal a i b j n =
  n = 0 || (a.(i) = b.(j) && values_equal a (i + 1) b (j + 1) (n - 1))

(* A row (at offset [i] of [a]) matches a key buffer on [positions]. *)
let rec matches_key a i positions key k =
  k = Array.length key
  || a.(i + positions.(k)) = key.(k) && matches_key a i positions key (k + 1)

(* An open-addressed table of entries, one word per slot: a row id (below
   2^30, so the entry stays non-negative) over the low 32 bits of its hash,
   -1 when empty.  The slot count is a power of two below 2^32, so an
   entry's hash bits give its home slot. *)
let empty_slots n = Array.make n (-1)
let[@inline] slot_mask slots = Array.length slots - 1
let[@inline] entry id h = (id lsl 32) lor (h land 0xFFFF_FFFF)
let[@inline] entry_id e = e asr 32
let[@inline] same_hash e h = (e lxor h) land 0xFFFF_FFFF = 0

(* Rehash every occupied slot into a table twice the size. *)
let grow_slots slots =
  let bigger = empty_slots (2 * Array.length slots) in
  let mask = slot_mask bigger in
  Array.iter
    (fun e ->
      if e >= 0 then begin
        let t = ref (e land mask) in
        while bigger.(!t) >= 0 do
          t := (!t + 1) land mask
        done;
        bigger.(!t) <- e
      end)
    slots;
  bigger

(* Empty slot [s] by backward shifting: every later entry of the probe run
   whose home slot does not lie between the hole and itself moves into the
   hole, so linear probing needs no tombstones. *)
let delete_slot slots s =
  let mask = slot_mask slots in
  let rec shift hole j =
    let j = (j + 1) land mask in
    let e = slots.(j) in
    if e < 0 then slots.(hole) <- -1
    else if (j - (e land mask)) land mask >= (j - hole) land mask then begin
      slots.(hole) <- e;
      shift j j
    end
    else shift hole j
  in
  shift s s

type index = {
  positions : int array;
  mutable heads : int array;
  mutable next : int array;
  mutable keys : int;
  key : int array;
}

type t = {
  arity : int;
  mutable data : int array;
  mutable size : int;
  mutable rows : int array;
  mutable indexes : index list;
  mutable index_builds : int;
}

(* A capacity hint is a planner's estimate, which can be far too high, so
   it allocates at most 2^20 rows up front (8 MB a position, and a 16 MB
   row set); a relation that outgrows the hint doubles as any other. *)
let max_capacity = 1 lsl 20

let create ?(capacity = 0) arity =
  let capacity = min max_capacity (max 8 capacity) in
  (* the smallest power of two that holds [capacity] rows at load 1/2 *)
  let rec slots n = if n >= 2 * capacity then n else slots (2 * n) in
  {
    arity;
    data = Array.make (capacity * arity) 0;
    size = 0;
    rows = empty_slots (slots 16);
    indexes = [];
    index_builds = 0;
  }

let copy_index ix =
  {
    ix with
    heads = Array.copy ix.heads;
    next = Array.copy ix.next;
    key = Array.make (Array.length ix.key) 0;
  }

let copy r =
  {
    r with
    data = Array.copy r.data;
    rows = Array.copy r.rows;
    indexes = List.map copy_index r.indexes;
  }

(* The slot holding the row equal to [src.(off ..)] (hash [h]), or the
   empty slot where it belongs. *)
let rec find_row slots mask data arity src off h s =
  let e = slots.(s) in
  if e < 0
     || same_hash e h && values_equal data (entry_id e * arity) src off arity
  then s
  else find_row slots mask data arity src off h ((s + 1) land mask)

let row_slot r src off h =
  find_row r.rows (slot_mask r.rows) r.data r.arity src off h
    (h land slot_mask r.rows)

let find r src off =
  entry_id r.rows.(row_slot r src off (hash_values src off r.arity))

(* The key slot of the rows matching [key], or the empty slot where the key
   belongs. *)
let rec find_key slots mask data arity positions key h s =
  let e = slots.(s) in
  if e < 0
     || same_hash e h && matches_key data (entry_id e * arity) positions key 0
  then s
  else find_key slots mask data arity positions key h ((s + 1) land mask)

(* Row [id]'s key, left in [ix.key]: its hash. *)
let key_hash ix data arity id =
  let key = ix.key in
  for k = 0 to Array.length key - 1 do
    key.(k) <- data.((id * arity) + ix.positions.(k))
  done;
  hash_values key 0 (Array.length key)

let key_slot ix data arity h =
  let heads = ix.heads in
  find_key heads (slot_mask heads) data arity ix.positions ix.key h
    (h land slot_mask heads)

let index_insert ix data arity id =
  if id >= Array.length ix.next then begin
    let next = Array.make (max 16 (2 * (id + 1))) (-1) in
    Array.blit ix.next 0 next 0 (Array.length ix.next);
    ix.next <- next
  end;
  let h = key_hash ix data arity id in
  let s = key_slot ix data arity h in
  let heads = ix.heads in
  let head = entry_id heads.(s) in
  ix.next.(id) <- head;
  heads.(s) <- entry id h;
  if head < 0 then begin
    ix.keys <- ix.keys + 1;
    if 2 * ix.keys > Array.length heads then ix.heads <- grow_slots heads
  end

(* Point whatever links to row [id] in its chain — the key slot or the
   previous row — at [target] instead; a key whose chain empties leaves the
   table. *)
let relink ix data arity id target =
  let s = key_slot ix data arity (key_hash ix data arity id) in
  let heads = ix.heads in
  if entry_id heads.(s) = id then begin
    if target >= 0 then heads.(s) <- entry target heads.(s)
    else begin
      delete_slot heads s;
      ix.keys <- ix.keys - 1
    end
  end
  else begin
    let row = ref (entry_id heads.(s)) in
    while ix.next.(!row) <> id do
      row := ix.next.(!row)
    done;
    ix.next.(!row) <- target
  end

let rec index_all data arity id = function
  | [] -> ()
  | ix :: rest ->
    index_insert ix data arity id;
    index_all data arity id rest

(* Add the row [src.(off ..)] whose hash is [h]; false if already present. *)
let add_hashed r src off h =
  let arity = r.arity and rows = r.rows in
  let s = row_slot r src off h in
  if rows.(s) >= 0 then false
  else begin
    let id = r.size in
    if (id + 1) * arity > Array.length r.data then begin
      let data = Array.make (2 * Array.length r.data) 0 in
      Array.blit r.data 0 data 0 (id * arity);
      r.data <- data
    end;
    let data = r.data in
    for k = 0 to arity - 1 do
      data.((id * arity) + k) <- src.(off + k)
    done;
    rows.(s) <- entry id h;
    r.size <- id + 1;
    if 2 * r.size > Array.length rows then r.rows <- grow_slots rows;
    index_all data arity id r.indexes;
    true
  end

let add r src off = add_hashed r src off (hash_values src off r.arity)

let add_all dst src on_new =
  for id = 0 to src.size - 1 do
    let off = id * src.arity in
    let h = hash_values src.data off src.arity in
    if add_hashed dst src.data off h then on_new src.data off h
  done

(* Remove the row [src.(off ..)], then move the last row into its id so the
   rows stay dense: the moved row's row-set slot and chain link are
   repointed, and its chain position is kept. *)
let remove r src off =
  let arity = r.arity and data = r.data in
  let s = row_slot r src off (hash_values src off arity) in
  let id = entry_id r.rows.(s) in
  id >= 0
  && begin
    List.iter (fun ix -> relink ix data arity id ix.next.(id)) r.indexes;
    delete_slot r.rows s;
    let last = r.size - 1 in
    if id <> last then begin
      List.iter
        (fun ix ->
          relink ix data arity last id;
          ix.next.(id) <- ix.next.(last))
        r.indexes;
      let off = last * arity in
      let moved = row_slot r data off (hash_values data off arity) in
      r.rows.(moved) <- entry id r.rows.(moved);
      Array.blit data (last * arity) data (id * arity) arity
    end;
    r.size <- last;
    true
  end

(* An index over the current rows, not registered on the relation. *)
let build_index r positions =
  let ix =
    {
      positions;
      heads = empty_slots 16;
      next = Array.make (max 16 r.size) (-1);
      keys = 0;
      key = Array.make (Array.length positions) 0;
    }
  in
  for id = 0 to r.size - 1 do
    index_insert ix r.data r.arity id
  done;
  ix

let find_index r positions =
  List.find_opt (fun ix -> ix.positions = positions) r.indexes

let index r positions =
  match find_index r positions with
  | Some ix -> ix
  | None ->
    let ix = build_index r positions in
    r.indexes <- ix :: r.indexes;
    r.index_builds <- r.index_builds + 1;
    ix

let probe ix r key =
  let h = hash_values key 0 (Array.length key) and heads = ix.heads in
  entry_id
    heads.(find_key heads (slot_mask heads) r.data r.arity ix.positions key h
             (h land slot_mask heads))

let covers_row r positions =
  let rec from k =
    k = Array.length positions || (positions.(k) = k && from (k + 1))
  in
  Array.length positions = r.arity && from 0

let lookup r positions key =
  if Array.length positions = 0 then List.init r.size Fun.id
  else if covers_row r positions then
    match find r key 0 with -1 -> [] | id -> [ id ]
  else
    let ix = index r positions in
    let rec walk row acc =
      if row < 0 then acc else walk ix.next.(row) (row :: acc)
    in
    walk (probe ix r key) []

let rec compare_rows a i j n =
  if n = 0 then 0
  else
    let c = Int.compare a.(i) a.(j) in
    if c <> 0 then c else compare_rows a (i + 1) (j + 1) (n - 1)

(* Below [radix_cutoff] rows a comparison sort is cheaper than the radix
   sort's fixed cost, its digit counts and two id arrays: on binary rows
   the two cross at about 40 rows with one digit per position and at about
   80 with two.  Wider digits cost more to clear than they save in passes
   at those sizes (EXPERIMENTS.md, "Micro-benchmarks").  The
   [relation:sorted-ids] row of [bench/main.exe micro] times a 60k-row
   sort. *)
let radix_cutoff = 64
let radix_bits = 8
let radix = 1 lsl radix_bits

(* One stable counting pass: the ids of [src], by the digit of the value at
   [pos] above [lo] that starts at bit [shift], into [dst].  [counts] holds
   the digit histogram and is left holding garbage. *)
let scatter data arity pos lo shift counts src dst =
  let total = ref 0 in
  for d = 0 to radix - 1 do
    let c = counts.(d) in
    counts.(d) <- !total;
    total := !total + c
  done;
  for i = 0 to Array.length src - 1 do
    let id = src.(i) in
    let d = ((data.((id * arity) + pos) - lo) lsr shift) land (radix - 1) in
    dst.(counts.(d)) <- id;
    counts.(d) <- counts.(d) + 1
  done

(* Stable LSD radix sort of the row ids: positions from last to first, each
   position's value (less its minimum) digit by digit from the lowest.  A
   digit every row shares moves nothing and is skipped.  [None] when a value
   is negative, which the digits cannot order. *)
let radix_sorted r =
  let n = r.size and arity = r.arity and data = r.data in
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
  let counts = Array.make radix 0 in
  let rec positions pos =
    if pos < 0 then Some !src
    else begin
      let lo = ref max_int and hi = ref min_int in
      for id = 0 to n - 1 do
        let v = data.((id * arity) + pos) in
        if v < !lo then lo := v;
        if v > !hi then hi := v
      done;
      if !lo < 0 then None
      else begin
        let lo = !lo and span = !hi - !lo in
        let shift = ref 0 in
        while !shift < Sys.int_size && span lsr !shift > 0 do
          Array.fill counts 0 radix 0;
          for id = 0 to n - 1 do
            let d = ((data.((id * arity) + pos) - lo) lsr !shift) land (radix - 1) in
            counts.(d) <- counts.(d) + 1
          done;
          let first = ((data.(pos) - lo) lsr !shift) land (radix - 1) in
          if counts.(first) < n then begin
            scatter data arity pos lo !shift counts !src !dst;
            let s = !src in
            src := !dst;
            dst := s
          end;
          shift := !shift + radix_bits
        done;
        positions (pos - 1)
      end
    end
  in
  positions (arity - 1)

let sorted_ids r =
  let by_comparison () =
    let ids = Array.init r.size Fun.id in
    Array.stable_sort
      (fun i j -> compare_rows r.data (i * r.arity) (j * r.arity) r.arity)
      ids;
    ids
  in
  if r.size < radix_cutoff || r.arity = 0 then by_comparison ()
  else match radix_sorted r with Some ids -> ids | None -> by_comparison ()

let decode r id =
  List.init r.arity (fun k -> Symbol.unsafe_of_int r.data.((id * r.arity) + k))

let tuples r =
  Array.fold_right (fun id acc -> decode r id :: acc) (sorted_ids r) []
