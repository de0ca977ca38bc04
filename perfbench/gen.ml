(* The seeded request mix of the serve-write workload, and the open-loop
   generator that sends it to [obda serve] in a traced run.

   [sequence] and [schedule] draw the whole request sequence up front from
   the seed: ANSWERs of the one prepared query, and writes of fresh
   [W(..)] constants — an ASSERT of a new constant or a RETRACT of the
   oldest live one.  [schedule] adds Poisson arrival times at a fixed
   offered rate.  [run] then takes each request up when it is due, on one
   thread over a few connections, whatever is still outstanding; a
   latency is timed from the due time, so a stall also delays every
   request queued behind it. *)

type kind = Answer | Assert of string | Retract of string

type request = {
  due : float;  (** seconds after the window opens *)
  line : string;
  kind : kind;
}

(* A function drawing the next request of the mix, due at [t]. *)
let mix ~seed ~write_share ~max_live ~query rng =
  let live = Queue.create () and fresh = ref 0 in
  fun t ->
    if Random.State.float rng 1. < write_share then
      if Queue.is_empty live || (Queue.length live < max_live && Random.State.bool rng) then begin
        let c = Printf.sprintf "w%d_%d" seed !fresh in
        incr fresh;
        Queue.push c live;
        { due = t; line = Printf.sprintf "ASSERT W(%s)" c; kind = Assert c }
      end
      else
        let c = Queue.pop live in
        { due = t; line = Printf.sprintf "RETRACT W(%s)" c; kind = Retract c }
    else { due = t; line = "ANSWER " ^ query; kind = Answer }

(* [n] requests of the mix, all due at 0. *)
let sequence ~seed ~n ~write_share ~max_live ~query =
  let next = mix ~seed ~write_share ~max_live ~query (Random.State.make [| seed; 0x5e7e |]) in
  Array.init n (fun _ -> next 0.)

let schedule ~seed ~rate ~seconds ~write_share ~max_live ~query =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let next = mix ~seed ~write_share ~max_live ~query rng in
  let rec draw t acc =
    let t = t -. (log (1. -. Random.State.float rng 1.) /. rate) in
    if t >= seconds then Array.of_list (List.rev acc) else draw t (next t :: acc)
  in
  draw 0. []

type result = {
  requests : request array;
  status : string array;  (** response status line; [""] when none arrived *)
  latency : float array;  (** completion − due, seconds; [infinity] when none arrived *)
  late : float array;  (** when the generator took the request up − due, seconds *)
  backlog_max : int;  (** most requests queued or in flight at an arrival *)
  backlog_growth : float;
      (** mean outstanding requests at sends in the last third of the
          window minus the mean in the first third *)
  cpu_s : float;  (** CPU time of the generator over the window *)
  window_s : float;
}

let now = Unix.gettimeofday

(* Send every request of [requests] when due, one at a time per
   connection: a due request waits in the generator's queue until a
   connection is free (a RETRACT also until its ASSERT was answered), so
   a cheap request never queues on a connection behind an expensive one
   while the other connection idles.  After the last arrival, wait up to
   20 s for the outstanding ones. *)
let run conns requests =
  let n = Array.length requests in
  let status = Array.make n "" in
  let latency = Array.make n infinity in
  let late = Array.make n 0. in
  let nc = Array.length conns in
  let busy = Array.make nc (-1) in
  let waiting = ref [] in
  let answered = Hashtbl.create 64 in
  let backlog = ref 0 and backlog_max = ref 0 in
  let first = ref 0. and first_n = ref 0 and last = ref 0. and last_n = ref 0 in
  let span = if n = 0 then 0. else requests.(n - 1).due in
  let times0 = Unix.times () in
  let t0 = now () +. 0.02 in
  let next = ref 0 in
  let arrive i =
    let r = requests.(i) in
    late.(i) <- now () -. t0 -. r.due;
    waiting := !waiting @ [ i ];
    incr backlog;
    if !backlog > !backlog_max then backlog_max := !backlog;
    if r.due < span /. 3. then begin
      first := !first +. float_of_int !backlog;
      incr first_n
    end
    else if r.due > 2. *. span /. 3. then begin
      last := !last +. float_of_int !backlog;
      incr last_n
    end
  in
  let ready i =
    match requests.(i).kind with Retract k -> Hashtbl.mem answered k | _ -> true
  in
  let dispatch () =
    Array.iteri
      (fun c conn ->
        if busy.(c) < 0 then
          match List.find_opt ready !waiting with
          | None -> ()
          | Some i ->
            waiting := List.filter (( <> ) i) !waiting;
            busy.(c) <- i;
            Conn.send conn requests.(i).line)
      conns
  in
  let complete c st =
    let i = busy.(c) in
    busy.(c) <- -1;
    status.(i) <- st;
    latency.(i) <- now () -. t0 -. requests.(i).due;
    (match requests.(i).kind with Assert k -> Hashtbl.replace answered k () | _ -> ());
    decr backlog
  in
  let deadline = ref infinity in
  let fds = Array.to_list (Array.map (fun (c : Conn.t) -> c.Conn.fd) conns) in
  (try
     while !next < n || (!backlog > 0 && now () < !deadline) do
       let t = now () -. t0 in
       while !next < n && requests.(!next).due <= t do
         arrive !next;
         incr next
       done;
       dispatch ();
       if !next = n && !deadline = infinity then deadline := now () +. 20.;
       let timeout =
         if !next < n then Float.max 0. (requests.(!next).due -. (now () -. t0))
         else Float.min 0.05 (Float.max 0. (!deadline -. now ()))
       in
       let readable =
         match Unix.select fds [] [] timeout with
         | r, _, _ -> r
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
       in
       Array.iteri
         (fun c (conn : Conn.t) ->
           if List.memq conn.Conn.fd readable then Conn.read conn (fun st _ -> complete c st))
         conns
     done
   with End_of_file | Unix.Unix_error _ -> ());
  let times1 = Unix.times () in
  let mean s k = if k = 0 then 0. else s /. float_of_int k in
  {
    requests;
    status;
    latency;
    late;
    backlog_max = !backlog_max;
    backlog_growth = mean !last !last_n -. mean !first !first_n;
    cpu_s =
      times1.Unix.tms_utime -. times0.Unix.tms_utime
      +. (times1.Unix.tms_stime -. times0.Unix.tms_stime);
    window_s = now () -. t0;
  }
