(* In-memory spans recorded around the benchmark's calls into each layer.

   Off by default: [span] then costs one branch.  When armed, every span
   keeps its name, the request (cell or replayed request) it belongs to,
   its parent and its start/stop times; nothing is written until the run
   ends and asks for [self_times].  A layer's self time is its span's
   duration minus the part covered by its child spans. *)

type span = {
  name : string;
  request : int;
  parent : int;  (** index of the enclosing span, -1 at the root *)
  start : float;
  mutable stop : float;
}

let armed = ref false
let spans : span array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []
let request = ref 0

let now = Unix.gettimeofday

let arm on =
  armed := on;
  spans := [||];
  count := 0;
  stack := []

let set_request id = request := id

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let span name f =
  if not !armed then f ()
  else begin
    let parent = match !stack with [] -> -1 | p :: _ -> p in
    let id = push { name; request = !request; parent; start = now (); stop = 0. } in
    stack := id :: !stack;
    let finish () =
      !spans.(id).stop <- now ();
      stack := List.tl !stack
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Self time per span name, summed over every recorded span. *)
let self_times () =
  let n = !count in
  let child = Array.make n 0. in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then
      child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start)
  done;
  let totals = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    let self = s.stop -. s.start -. child.(i) in
    let prev = Option.value ~default:0. (Hashtbl.find_opt totals s.name) in
    Hashtbl.replace totals s.name (prev +. self)
  done;
  totals

let self_time totals name =
  Option.value ~default:0. (Hashtbl.find_opt totals name)

(* Append every recorded span to [oc] as one JSON line each: name,
   request, parent index, start and duration in seconds. *)
let write oc =
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    output_string oc
      (Obda_obs.Json.to_string
         (Obda_obs.Json.Assoc
            [
              ("span", Obda_obs.Json.Int i);
              ("name", Obda_obs.Json.String s.name);
              ("request", Obda_obs.Json.Int s.request);
              ("parent", Obda_obs.Json.Int s.parent);
              ("start", Obda_obs.Json.Float s.start);
              ("duration", Obda_obs.Json.Float (s.stop -. s.start));
            ]));
    output_char oc '\n'
  done
