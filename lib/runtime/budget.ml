type t = {
  timeout : float option;  (* the wall-clock allowance in seconds *)
  deadline : float option;  (* absolute, Unix.gettimeofday *)
  max_steps : int option;
  max_size : int option;
  mutable steps : int;
  mutable size : int;
}

(* consult the wall clock on the first step, then every [mask + 1] *)
let mask = 0x3FF

let create ?timeout ?max_steps ?max_size () =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  { timeout; deadline; max_steps; max_size; steps = 0; size = 0 }

let none =
  {
    timeout = None;
    deadline = None;
    max_steps = None;
    max_size = None;
    steps = 0;
    size = 0;
  }

let is_limited b =
  b.deadline <> None || b.max_steps <> None || b.max_size <> None

let sub b = { b with steps = 0; size = 0 }

let restart b =
  {
    b with
    deadline = Option.map (fun s -> Unix.gettimeofday () +. s) b.timeout;
    steps = 0;
    size = 0;
  }

let sub_scaled ~factor b =
  if factor < 1. then invalid_arg "Budget.sub_scaled: factor < 1";
  let scale limit =
    max 1 (int_of_float (Float.ceil (float_of_int limit *. factor)))
  in
  {
    b with
    steps = 0;
    size = 0;
    max_steps = Option.map scale b.max_steps;
    max_size = Option.map scale b.max_size;
  }

let exhausted resource spent limit =
  raise (Error.Obda_error (Error.Budget_exhausted { resource; spent; limit }))

let ms s = int_of_float (s *. 1000.)

let check_deadline b =
  match (b.deadline, b.timeout) with
  | Some d, Some s ->
    let now = Unix.gettimeofday () in
    if now > d then exhausted Error.Wall_clock (ms s + ms (now -. d)) (ms s)
  | _ -> ()

let step b =
  b.steps <- b.steps + 1;
  (match b.max_steps with
  | Some limit -> if b.steps > limit then exhausted Error.Steps b.steps limit
  | None -> ());
  if b.steps land mask = 0 || b.steps = 1 then check_deadline b

let grow ?(by = 1) b =
  b.size <- b.size + by;
  match b.max_size with
  | Some limit -> if b.size > limit then exhausted Error.Size b.size limit
  | None -> ()

let charge b n =
  let before = b.steps in
  b.steps <- before + n;
  (match b.max_steps with
  | Some limit -> if b.steps > limit then exhausted Error.Steps b.steps limit
  | None -> ());
  grow ~by:n b;
  (* [before lor mask] is the last count short of the next multiple of
     [mask + 1]: passing it, or reaching the first step, is what {!step}
     would have checked on *)
  if b.steps > before lor mask || (before = 0 && b.steps > 0) then
    check_deadline b

let steps_spent b = b.steps
let size_spent b = b.size

type limits = {
  timeout : float option;
  max_steps : int option;
  max_size : int option;
}

let limits (b : t) =
  { timeout = b.timeout; max_steps = b.max_steps; max_size = b.max_size }

let steps_remaining b =
  Option.map (fun limit -> max 0 (limit - b.steps)) b.max_steps

let size_remaining b =
  Option.map (fun limit -> max 0 (limit - b.size)) b.max_size

let wall_remaining b =
  Option.map (fun d -> Float.max 0. (d -. Unix.gettimeofday ())) b.deadline

let wall_exhausted b =
  match b.deadline with
  | Some d -> Unix.gettimeofday () >= d
  | None -> false
