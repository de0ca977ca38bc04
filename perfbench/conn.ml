(* One client connection to [obda serve], with a response reader that
   counts the payload lines announced in each status line ([answers=N],
   [stats=N], [metrics=N]) by scanning for newlines in place: a response
   allocates its status line and nothing per payload line. *)

type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;  (** first unconsumed byte *)
  mutable stop : int;  (** end of the bytes read so far *)
  mutable status : string option;  (** status line of the response in progress *)
  mutable remaining : int;  (** payload lines still to skip *)
  mutable keep : string list option;  (** payload lines kept, newest first *)
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    { fd; buf = Bytes.create 65536; pos = 0; stop = 0; status = None; remaining = 0; keep = None }
  | exception e ->
    Unix.close fd;
    raise e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t line =
  let s = line ^ "\n" in
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring t.fd s !off (n - !off)
  done

(* The integer right after [key] in a status line
   ("OK asserted added=1 atoms=40142"). *)
let int_field status key =
  let k = String.length key and n = String.length status in
  let rec find i =
    if i + k > n then None
    else if String.sub status i k = key then begin
      let j = ref (i + k) in
      while !j < n && status.[!j] >= '0' && status.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub status (i + k) (!j - i - k))
    end
    else find (i + 1)
  in
  find 0

(* The number of payload lines a status line announces. *)
let announced status =
  List.find_map
    (fun key ->
      if String.starts_with ~prefix:("OK " ^ key) status then int_field status key else None)
    [ "answers="; "stats="; "metrics=" ]
  |> Option.value ~default:0

let index_newline t from =
  let rec go i =
    if i >= t.stop then -1 else if Bytes.unsafe_get t.buf i = '\n' then i else go (i + 1)
  in
  go from

(* Skip (or keep) announced payload lines; [true] once all are consumed. *)
let rec consume_payload t =
  t.remaining = 0
  ||
  match index_newline t t.pos with
  | -1 -> false
  | nl ->
    (match t.keep with
    | Some lines -> t.keep <- Some (Bytes.sub_string t.buf t.pos (nl - t.pos) :: lines)
    | None -> ());
    t.pos <- nl + 1;
    t.remaining <- t.remaining - 1;
    consume_payload t

(* Hand every complete buffered response to [k status payload]; the
   payload is [[]] unless the connection keeps lines. *)
let rec drain t k =
  match t.status with
  | None -> (
    match index_newline t t.pos with
    | -1 -> ()
    | nl ->
      let status = Bytes.sub_string t.buf t.pos (nl - t.pos) in
      t.pos <- nl + 1;
      t.remaining <- announced status;
      t.status <- Some status;
      drain t k)
  | Some status ->
    if consume_payload t then begin
      t.status <- None;
      let lines = match t.keep with Some l -> List.rev l | None -> [] in
      if t.keep <> None then t.keep <- Some [];
      k status lines;
      drain t k
    end

(* Read what the socket has (one blocking read), then consume complete
   responses.  Raises [End_of_file] when the server closed the
   connection. *)
let read t k =
  if t.pos = t.stop then begin
    t.pos <- 0;
    t.stop <- 0
  end
  else if t.stop = Bytes.length t.buf then begin
    let live = t.stop - t.pos in
    let buf =
      if live * 2 > Bytes.length t.buf then Bytes.create (2 * Bytes.length t.buf) else t.buf
    in
    Bytes.blit t.buf t.pos buf 0 live;
    t.buf <- buf;
    t.pos <- 0;
    t.stop <- live
  end;
  let n = Unix.read t.fd t.buf t.stop (Bytes.length t.buf - t.stop) in
  if n = 0 then raise End_of_file;
  t.stop <- t.stop + n;
  drain t k

(* A blocking exchange for set-up and control requests (PREPARE, ANSWER
   during warm-up, METRICS): the status line and the payload lines. *)
let request t line =
  t.keep <- Some [];
  send t line;
  let result = ref None in
  while !result = None do
    read t (fun status lines -> result := Some (status, lines))
  done;
  t.keep <- None;
  Option.get !result
