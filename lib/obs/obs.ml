module Error = Obda_runtime.Error
module Fault = Obda_runtime.Fault

type value = Int of int | Float of float
type outcome = Completed | Failed of string

type span = {
  id : int;
  parent : int option;
  depth : int;
  name : string;
  attrs : (string * string) list;
  start : float;
  duration : float;
  outcome : outcome;
}

type kind = Counter | Gauge

type sink = {
  on_span : span -> unit;
  on_metric : kind -> string -> value -> unit;
  on_flush : unit -> unit;
}

type state = {
  mutable sink : sink;  (* the installed sink, teed with any [tap]ped one *)
  t0 : float;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, value) Hashtbl.t;
  next_id : int Atomic.t;
}

type open_span = {
  oid : int;
  odepth : int;
  ostart : float;  (* absolute *)
  ostate : state;  (* a span parents only spans of its own sink *)
}

(* The single telemetry slot.  [None] is the fast path: every recording
   entry point starts with one load and branch on this reference.  The
   enabled path is guarded by [lock]: the network server records spans and
   counters from several domains at once, and serialising the bookkeeping
   (and the sink writes, which become line-atomic) is what keeps the
   single-slot design safe there. *)
let current : state option ref = ref None
let lock = Mutex.create ()

(* Open spans nest per domain: a connection worker's spans parent under
   its own request, whatever other domains have open. *)
let open_spans : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

let enabled () = !current <> None
let now () = Unix.gettimeofday ()

let tee sinks =
  {
    on_span = (fun s -> List.iter (fun k -> k.on_span s) sinks);
    on_metric =
      (fun kind name v -> List.iter (fun k -> k.on_metric kind name v) sinks);
    on_flush = (fun () -> List.iter (fun k -> k.on_flush ()) sinks);
  }

let fresh sink =
  {
    sink;
    t0 = now ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 32;
    next_id = Atomic.make 0;
  }

let install sink = locked (fun () -> current := Some (fresh sink))

let tap extra =
  locked (fun () ->
      let st, undo =
        match !current with
        | Some st ->
          let prev = st.sink in
          st.sink <- tee [ prev; extra ];
          (st, fun () -> st.sink <- prev)
        | None ->
          let st = fresh extra in
          current := Some st;
          (st, fun () -> current := None)
      in
      fun () ->
        locked (fun () ->
            match !current with Some st' when st' == st -> undo () | _ -> ()))

let flush () =
  match !current with
  | None -> ()
  | Some _ ->
    locked (fun () ->
        match !current with
        | None -> ()
        | Some st ->
          let items =
            Hashtbl.fold
              (fun k r acc -> (k, Counter, Int !r) :: acc)
              st.counters []
          in
          let items =
            Hashtbl.fold (fun k v acc -> (k, Gauge, v) :: acc) st.gauges items
          in
          List.iter
            (fun (k, kind, v) -> st.sink.on_metric kind k v)
            (List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) items);
          st.sink.on_flush ())

let uninstall () =
  match !current with
  | None -> ()
  | Some _ ->
    flush ();
    current := None

(* ------------------------------------------------------------------ *)
(* Recording *)

let outcome_of_exn exn =
  match Error.of_exn exn with
  | Some e -> Failed (Error.class_name e)
  | None -> Failed "exception"

let with_span ?(attrs = []) name f =
  match !current with
  | None -> f ()
  | Some st ->
    let stack = Domain.DLS.get open_spans in
    let parent, depth =
      match !stack with
      | o :: _ when o.ostate == st -> (Some o.oid, o.odepth + 1)
      | _ -> (None, 0)
    in
    let id = Atomic.fetch_and_add st.next_id 1 in
    let o = { oid = id; odepth = depth; ostart = now (); ostate = st } in
    stack := o :: !stack;
    let close outcome =
      (* pop to (and including) this span, tolerating unbalanced inner
         spans left open by a non-local exit *)
      let rec pop = function
        | top :: rest -> if top == o then rest else pop rest
        | [] -> []
      in
      stack := pop !stack;
      let t1 = now () in
      locked (fun () ->
          st.sink.on_span
            {
              id;
              parent;
              depth;
              name;
              attrs;
              start = o.ostart -. st.t0;
              duration = t1 -. o.ostart;
              outcome;
            })
    in
    (match f () with
    | v ->
      close Completed;
      v
    | exception exn ->
      close (outcome_of_exn exn);
      raise exn)

let count name by =
  match !current with
  | None -> ()
  | Some st ->
    locked (fun () ->
        match Hashtbl.find_opt st.counters name with
        | Some r -> r := !r + by
        | None -> Hashtbl.add st.counters name (ref by))

let incr name = count name 1

let set_int name v =
  match !current with
  | None -> ()
  | Some st -> locked (fun () -> Hashtbl.replace st.gauges name (Int v))

let set_float name v =
  match !current with
  | None -> ()
  | Some st -> locked (fun () -> Hashtbl.replace st.gauges name (Float v))

let counter_value name =
  match !current with
  | None -> 0
  | Some st ->
    locked (fun () ->
        match Hashtbl.find_opt st.counters name with Some r -> !r | None -> 0)

let gauge_value name =
  match !current with
  | None -> None
  | Some st -> locked (fun () -> Hashtbl.find_opt st.gauges name)

(* ------------------------------------------------------------------ *)
(* Sinks *)

let null_sink =
  { on_span = (fun _ -> ()); on_metric = (fun _ _ _ -> ()); on_flush = ignore }

let ms seconds = Float (seconds *. 1000.)

let json_of_value = function
  | Int n -> Json.Int n
  | Float f -> Json.Float f

let json_sink ?(spans = true) ?(metrics = true) write =
  (* every line of a JSON sink is one guarded trace-sink write *)
  let write line =
    Fault.hit Fault.obs_sink_write;
    write line
  in
  let on_span sp =
    if spans then
      let outcome_fields =
        match sp.outcome with
        | Completed -> [ ("outcome", Json.String "ok") ]
        | Failed cls ->
          [ ("outcome", Json.String "error"); ("error_class", Json.String cls) ]
      in
      let fields =
        [
          ("type", Json.String "span");
          ("id", Json.Int sp.id);
        ]
        @ (match sp.parent with
          | Some p -> [ ("parent", Json.Int p) ]
          | None -> [])
        @ [
            ("depth", Json.Int sp.depth);
            ("name", Json.String sp.name);
          ]
        @ (match sp.attrs with
          | [] -> []
          | attrs ->
            [
              ( "attrs",
                Json.Assoc (List.map (fun (k, v) -> (k, Json.String v)) attrs)
              );
            ])
        @ [
            ("start_ms", json_of_value (ms sp.start));
            ("duration_ms", json_of_value (ms sp.duration));
          ]
        @ outcome_fields
      in
      write (Json.to_string (Json.Assoc fields))
  in
  let on_metric kind name v =
    if metrics then
      write
        (Json.to_string
           (Json.Assoc
              [
                ("type", Json.String "metric");
                ( "kind",
                  Json.String
                    (match kind with Counter -> "counter" | Gauge -> "gauge") );
                ("name", Json.String name);
                ("value", json_of_value v);
              ]))
  in
  { on_span; on_metric; on_flush = ignore }

module Collector = struct
  type t = {
    mutable cspans : span list;  (* reverse completion order *)
    ccounters : (string, int) Hashtbl.t;
    cgauges : (string, value) Hashtbl.t;
  }

  let create () =
    { cspans = []; ccounters = Hashtbl.create 16; cgauges = Hashtbl.create 16 }

  let sink c =
    {
      on_span = (fun s -> c.cspans <- s :: c.cspans);
      on_metric =
        (fun kind name v ->
          match (kind, v) with
          | Counter, Int n -> Hashtbl.replace c.ccounters name n
          | Counter, Float _ -> ()  (* counters are always integral *)
          | Gauge, v -> Hashtbl.replace c.cgauges name v);
      on_flush = ignore;
    }

  let spans c = List.rev c.cspans

  let counter c name =
    Option.value ~default:0 (Hashtbl.find_opt c.ccounters name)

  let gauge c name = Hashtbl.find_opt c.cgauges name

  let gauge_int c name =
    match gauge c name with
    | Some (Int n) -> Some n
    | Some (Float _) | None -> None

  let gauge_float c name =
    match gauge c name with
    | Some (Float f) -> Some f
    | Some (Int n) -> Some (float_of_int n)
    | None -> None

  let metrics c =
    let items =
      Hashtbl.fold (fun k n acc -> (k, Counter, Int n) :: acc) c.ccounters []
    in
    let items =
      Hashtbl.fold (fun k v acc -> (k, Gauge, v) :: acc) c.cgauges items
    in
    List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) items

  let value_to_string = function
    | Int n -> string_of_int n
    | Float f -> Printf.sprintf "%.2f" f

  let pp ppf c =
    (* start order = id order; render the tree by nesting depth *)
    let by_start =
      List.sort (fun a b -> Int.compare a.id b.id) (spans c)
    in
    if by_start <> [] then begin
      Format.fprintf ppf "spans:@.";
      List.iter
        (fun sp ->
          let label =
            match sp.attrs with
            | [] -> sp.name
            | attrs ->
              sp.name ^ " "
              ^ String.concat " "
                  (List.map (fun (k, v) -> k ^ "=" ^ v) attrs)
          in
          Format.fprintf ppf "  %s%-*s %8.2fms  %s@."
            (String.make (2 * sp.depth) ' ')
            (max 1 (40 - (2 * sp.depth)))
            label
            (sp.duration *. 1000.)
            (match sp.outcome with
            | Completed -> "ok"
            | Failed cls -> "error:" ^ cls))
        by_start
    end;
    let ms = metrics c in
    if ms <> [] then begin
      Format.fprintf ppf "metrics:@.";
      List.iter
        (fun (name, kind, v) ->
          Format.fprintf ppf "  %-40s %10s  (%s)@." name (value_to_string v)
            (match kind with Counter -> "counter" | Gauge -> "gauge"))
        ms
    end
end

let collecting f =
  let saved = !current in
  let c = Collector.create () in
  install (Collector.sink c);
  let restore () =
    flush ();
    current := saved
  in
  match f () with
  | v ->
    restore ();
    (v, c)
  | exception exn ->
    restore ();
    raise exn
