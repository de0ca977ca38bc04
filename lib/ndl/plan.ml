open Obda_syntax

type cterm = CV of int | CC of int

type catom =
  | CPred of Symbol.t * cterm array
  | CEq of cterm * cterm
  | CDom of cterm

type strategy = Scan | Index | Hash

type step = {
  atom : catom;
  probe : int list;
  strategy : strategy;
  est_matches : float;
}

type t = {
  steps : step list;
  order : int list;
  est_reads : float;
  est_out : float;
  reordered : bool;
}

type stats = {
  card : Symbol.t -> int;
  distinct : Symbol.t -> int list -> int option;
  transient : Symbol.t -> bool;
  domain : int;
}

let scan_cutoff = 16

let compile (c : Ndl.clause) =
  let vars = Ndl.clause_vars c in
  let index = Hashtbl.create 8 in
  List.iteri (fun i v -> Hashtbl.replace index v i) vars;
  let cterm = function
    | Ndl.Var v -> CV (Hashtbl.find index v)
    | Ndl.Cst c -> CC (c :> int)
  in
  let catom = function
    | Ndl.Pred (p, ts) -> CPred (p, Array.of_list (List.map cterm ts))
    | Ndl.Eq (t1, t2) -> CEq (cterm t1, cterm t2)
    | Ndl.Dom t -> CDom (cterm t)
  in
  let head = Array.of_list (List.map cterm (snd c.head)) in
  (List.length vars, Array.of_list vars, head, List.map catom c.body)

let term_bound bound = function CV j -> bound.(j) | CC _ -> true

let atom_probe bound ts =
  let probe = ref [] in
  Array.iteri
    (fun i t ->
      match t with
      | CC _ -> probe := i :: !probe
      | CV j -> if bound.(j) then probe := i :: !probe)
    ts;
  List.rev !probe

let bind bound = function
  | CPred (_, ts) ->
    Array.iter (function CV j -> bound.(j) <- true | CC _ -> ()) ts
  | CEq (t1, t2) ->
    List.iter (function CV j -> bound.(j) <- true | CC _ -> ()) [ t1; t2 ]
  | CDom t -> ( match t with CV j -> bound.(j) <- true | CC _ -> ())

(* Distinct keys under [probe]: exact when the evaluator already holds an
   index on those positions, otherwise capped at |domain|^|probe| — every
   key component ranges over the active domain. *)
let distinct_keys stats p probe card =
  match stats.distinct p probe with
  | Some d when d > 0 -> float_of_int d
  | _ ->
    let dom = float_of_int (max 1 stats.domain) in
    Float.max 1.0
      (Float.min
         (float_of_int (max 1 card))
         (dom ** float_of_int (List.length probe)))

(* Access strategy for a predicate atom probed on [probe].  A maintained
   index is build-once and amortised across clauses and rounds, so it wins
   whenever the relation persists — the case where a fresh hash table beats
   it (selective probes never touching most build work) does not arise,
   because the build is already sunk.  A transient relation (a semi-naïve
   delta, replaced every round) would force one full-scan index build per
   round, so there the per-evaluation hash table wins; and at [scan_cutoff]
   tuples or below, walking the relation beats any table. *)
let choose_strategy stats p probe card =
  if probe = [] || card <= scan_cutoff then Scan
  else if stats.transient p then Hash
  else Index

let make stats ~nvars atoms =
  let bound = Array.make nvars false in
  let dom = float_of_int (max 1 stats.domain) in
  let indexed = List.mapi (fun i a -> (i, a)) atoms in
  let score rows (_, a) =
    match a with
    | CPred (p, ts) ->
      let probe = atom_probe bound ts in
      let card = stats.card p in
      let m =
        if probe = [] then float_of_int card
        else float_of_int card /. distinct_keys stats p probe card
      in
      let strategy = choose_strategy stats p probe card in
      let reads =
        match strategy with
        | Scan -> rows *. float_of_int card
        | Index -> rows *. m
        | Hash -> float_of_int card +. (rows *. m)
      in
      (rows *. m, reads, { atom = a; probe; strategy; est_matches = m })
    | CEq _ | CDom _ ->
      (* unbound equality / domain atom: a full sweep of the domain *)
      ( rows *. dom,
        rows *. dom,
        { atom = a; probe = []; strategy = Scan; est_matches = dom } )
  in
  let rec pick rows est_reads acc order remaining =
    match remaining with
    | [] -> (List.rev acc, est_reads, rows, List.rev order)
    | _ -> (
      (* a bound equality or domain atom is a free filter: take it now *)
      let filter =
        List.find_opt
          (fun (_, a) ->
            match a with
            | CEq (t1, t2) -> term_bound bound t1 || term_bound bound t2
            | CDom t -> term_bound bound t
            | CPred _ -> false)
          remaining
      in
      match filter with
      | Some ((i, a) as chosen) ->
        bind bound a;
        let step =
          { atom = a; probe = []; strategy = Scan; est_matches = 1.0 }
        in
        pick rows est_reads (step :: acc) (i :: order)
          (List.filter (fun x -> x != chosen) remaining)
      | None ->
        let best =
          List.fold_left
            (fun best cand ->
              let out, reads, _ = score rows cand in
              match best with
              | None -> Some (cand, out, reads)
              | Some (_, bout, breads) ->
                if out < bout || (out = bout && reads < breads) then
                  Some (cand, out, reads)
                else best)
            None remaining
        in
        let ((i, a) as chosen), out, reads = Option.get best in
        let _, _, step = score rows chosen in
        bind bound a;
        pick out (est_reads +. reads) (step :: acc) (i :: order)
          (List.filter (fun x -> x != chosen) remaining))
  in
  let steps, est_reads, est_out, order = pick 1.0 0.0 [] [] indexed in
  let reordered = order <> List.sort Int.compare order in
  { steps; order; est_reads; est_out; reordered }

let trivial ~nvars atoms =
  let bound = Array.make nvars false in
  let steps =
    List.map
      (fun a ->
        let step =
          match a with
          | CPred (_, ts) ->
            let probe = atom_probe bound ts in
            {
              atom = a;
              probe;
              strategy = (if probe = [] then Scan else Index);
              est_matches = 0.0;
            }
          | CEq _ | CDom _ ->
            { atom = a; probe = []; strategy = Scan; est_matches = 0.0 }
        in
        bind bound a;
        step)
      atoms
  in
  {
    steps;
    order = List.mapi (fun i _ -> i) atoms;
    est_reads = 0.0;
    est_out = 0.0;
    reordered = false;
  }

let describe ~names plan =
  let term = function
    | CV i -> names.(i)
    | CC c -> Symbol.name (Symbol.unsafe_of_int c)
  in
  let atom_str = function
    | CPred (p, ts) ->
      Printf.sprintf "%s(%s)" (Symbol.name p)
        (String.concat "," (Array.to_list (Array.map term ts)))
    | CEq (t1, t2) -> Printf.sprintf "%s = %s" (term t1) (term t2)
    | CDom t -> Printf.sprintf "top(%s)" (term t)
  in
  let positions probe = String.concat "," (List.map string_of_int probe) in
  let step_str s =
    match s.atom with
    | CPred _ ->
      let strat =
        match s.strategy with
        | Scan -> "scan"
        | Index -> Printf.sprintf "index[%s]" (positions s.probe)
        | Hash -> Printf.sprintf "hash[%s]" (positions s.probe)
      in
      Printf.sprintf "%s{%s~%.3g}" (atom_str s.atom) strat s.est_matches
    | CEq _ | CDom _ -> atom_str s.atom
  in
  Printf.sprintf "%s%s  est_reads=%.3g"
    (String.concat " , " (List.map step_str plan.steps))
    (if plan.reordered then "  (reordered)" else "")
    plan.est_reads
