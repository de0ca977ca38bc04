open Obda_syntax
open Obda_data
module Budget = Obda_runtime.Budget
module Error = Obda_runtime.Error
module Fault = Obda_runtime.Fault
module Obs = Obda_obs.Obs

(* ------------------------------------------------------------------ *)
(* Compiled clauses *)

type cterm = Plan.cterm = CV of int | CC of int

type catom = Plan.catom =
  | CPred of Symbol.t * cterm array
  | CEq of cterm * cterm
  | CDom of cterm

(* A plan step as the matcher runs it.  The plan fixes which variables are
   bound when each step runs, so a predicate step's key, the checks on each
   row it reads and the slots it binds are all known before evaluation. *)
type pred_step = {
  pred : Symbol.t;
  arity : int;
  strategy : Plan.strategy;
  probe : int array;  (* [Index]/[Hash]: the bound positions, ascending *)
  whole : bool;  (* every position is probed: a row-set lookup *)
  key : cterm array;  (* the term at each probe position *)
  consts : int array;  (* (position, constant) pairs a row must hold *)
  binds : int array;  (* (position, slot) pairs each row binds *)
  agrees : int array;
      (* (position, slot) pairs a row must agree with: slots bound before
         the step ([Scan] only) or by an earlier position of the atom *)
}

type mstep =
  | Pred of pred_step
  | Eq_test of cterm * cterm  (* both sides bound *)
  | Eq_bind of int * cterm  (* the slot takes the bound side's value *)
  | Eq_sweep of int * int  (* neither side bound: both range over ⊤ *)
  | Dom_test of cterm
  | Dom_sweep of int

let matcher ~nvars (plan : Plan.t) =
  let bound = Array.make nvars false in
  let is_bound = function CV i -> bound.(i) | CC _ -> true in
  let mark = function CV i -> bound.(i) <- true | CC _ -> () in
  let pairs l =
    Array.of_list (List.concat_map (fun (a, b) -> [ a; b ]) (List.rev l))
  in
  let step (s : Plan.step) =
    match s.atom with
    | CEq (t1, t2) ->
      let m =
        match (is_bound t1, is_bound t2, t1, t2) with
        | true, true, _, _ -> Eq_test (t1, t2)
        | true, false, _, CV j -> Eq_bind (j, t1)
        | false, true, CV i, _ -> Eq_bind (i, t2)
        | false, false, CV i, CV j -> Eq_sweep (i, j)
        | _ -> assert false (* constants are bound *)
      in
      mark t1;
      mark t2;
      m
    | CDom t ->
      let m =
        match t with
        | _ when is_bound t -> Dom_test t
        | CV i -> Dom_sweep i
        | CC _ -> assert false
      in
      mark t;
      m
    | CPred (pred, ts) ->
      let keyed = s.strategy <> Plan.Scan in
      let key = ref [] and consts = ref [] in
      let binds = ref [] and agrees = ref [] in
      Array.iteri
        (fun pos t ->
          match t with
          | CC c ->
            if keyed then key := (pos, t) :: !key
            else consts := (pos, c) :: !consts
          | CV j when bound.(j) ->
            if keyed then key := (pos, t) :: !key
            else agrees := (pos, j) :: !agrees
          | CV j ->
            if List.exists (fun (_, j') -> j' = j) !binds then
              agrees := (pos, j) :: !agrees
            else binds := (pos, j) :: !binds)
        ts;
      Array.iter mark ts;
      let key = List.rev !key in
      (* the planner tracked the same bound set *)
      assert ((not keyed) || List.map fst key = s.probe);
      Pred
        {
          pred;
          arity = Array.length ts;
          strategy = s.strategy;
          probe = Array.of_list (List.map fst key);
          whole = keyed && List.length key = Array.length ts;
          key = Array.of_list (List.map snd key);
          consts = pairs !consts;
          binds = pairs !binds;
          agrees = pairs !agrees;
        }
  in
  Array.of_list (List.map step plan.steps)

type compiled = {
  nvars : int;
  names : string array;
  head : cterm array;
  plan : Plan.t;
  steps : mstep array;  (* [plan] compiled for the matcher *)
}

(* ------------------------------------------------------------------ *)
(* Evaluation *)

type result = {
  answers : Symbol.t list list;
  generated_tuples : int;
  tuples_read : int;
  idb_relations : Relation.t Symbol.Map.t Lazy.t;
}

type env = {
  relations : Relation.t Symbol.Tbl.t;
      (* IDB, external EDB, and the ABox's relations read in place: never
         indexed or written here, since snapshots are read from many
         domains at once *)
  abox : Abox.t;
  external_edb : Symbol.t -> int -> Symbol.t list list option;
  external_relations : Relation.t Symbol.Tbl.t;
      (* the external EDB relations built so far, registered in
         [relations] only when a clause reads them *)
  domain : int array Lazy.t;
      (* ⊤, sorted for membership by binary search; built on first use *)
  budget : Budget.t;
  explain : (string -> unit) option;
  mutable reads : int;
      (* tuples delivered from relation storage or domain sweeps — the
         engine-work measure the eval-plan bench gates on *)
}

(* Whether [c] occurs in the sorted [a.(lo .. hi - 1)]. *)
let rec sorted_mem a c lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let v = a.(mid) in
  v = c || if v < c then sorted_mem a c (mid + 1) hi else sorted_mem a c lo mid

let check_arity p (r : Relation.t) arity =
  if r.arity <> arity then
    Error.parse_error ~line:0 "relation %a is used with arities %d and %d"
      Symbol.pp p r.arity arity

(* An EDB predicate's relation, the external source first, then the ABox;
   registered nowhere, so reading statistics or emptiness off it leaves
   the planner's view of the run as it was. *)
let edb_relation env p ~arity =
  match Symbol.Tbl.find_opt env.external_relations p with
  | Some r ->
    check_arity p r arity;
    Some r
  | None -> (
    match env.external_edb p arity with
    | Some tuples ->
      let r = Relation.create arity and row = Array.make arity 0 in
      List.iter
        (fun tuple ->
          (* a short or long row would be read across its neighbours in
             the strided buffer *)
          let n = List.length tuple in
          if n <> arity then
            Error.parse_error ~line:0
              "relation %a has a row of arity %d in the data source but \
               arity %d in the query"
              Symbol.pp p n arity;
          List.iteri (fun k (c : Symbol.t) -> row.(k) <- (c :> int)) tuple;
          ignore (Relation.add r row 0))
        tuples;
      Symbol.Tbl.replace env.external_relations p r;
      Some r
    | None -> Abox.relation env.abox p ~arity)

let get_relation env p ~arity =
  match Symbol.Tbl.find_opt env.relations p with
  | Some r ->
    check_arity p r arity;
    r
  | None ->
    let r =
      match edb_relation env p ~arity with
      | Some r -> r
      | None when arity <= 2 -> Relation.create arity
      | None -> invalid_arg (Printf.sprintf "Eval: EDB predicate of arity %d" arity)
    in
    Symbol.Tbl.replace env.relations p r;
    r

(* The naïve baseline's static atom order: repeatedly pick the cheapest
   atom given the variables bound so far (bound count first, then smaller
   relations), exactly the pre-planner heuristic. *)
let order_atoms env nvars atoms =
  let bound = Array.make nvars false in
  let term_bound = function CV i -> bound.(i) | CC _ -> true in
  let score = function
    | CEq (t1, t2) ->
      if term_bound t1 || term_bound t2 then max_int else -1000
    | CDom t -> if term_bound t then max_int - 1 else -100
    | CPred (p, ts) ->
      let bound_count =
        Array.fold_left (fun acc t -> if term_bound t then acc + 1 else acc) 0 ts
      in
      let size =
        match Symbol.Tbl.find_opt env.relations p with
        | Some r -> r.Relation.size
        | None -> 0 (* EDB not yet materialised; assume large-ish *)
      in
      (bound_count * 1_000_000) - min size 999_999
  in
  let bind_atom = function
    | CEq (t1, t2) | CPred (_, [| t1; t2 |]) ->
      (match t1 with CV i -> bound.(i) <- true | CC _ -> ());
      (match t2 with CV i -> bound.(i) <- true | CC _ -> ())
    | CDom t | CPred (_, [| t |]) -> (
      match t with CV i -> bound.(i) <- true | CC _ -> ())
    | CPred (_, ts) ->
      Array.iter (function CV i -> bound.(i) <- true | CC _ -> ()) ts
  in
  let rec pick acc remaining =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      let best =
        List.fold_left
          (fun best a ->
            match best with
            | None -> Some a
            | Some b -> if score a > score b then Some a else best)
          None remaining
      in
      let a = Option.get best in
      bind_atom a;
      pick (a :: acc) (List.filter (fun a' -> a' != a) remaining)
  in
  pick [] atoms

(* Planner statistics, read off the evaluator's current state: exact
   relation sizes, exact distinct-key counts whenever the probe covers the
   row or an index on those positions is registered (an ABox relation's
   [0] and [1] always are), the active-domain size otherwise. *)
let stats_of_env env ~transient =
  {
    Plan.card =
      (fun p ->
        match Symbol.Tbl.find_opt env.relations p with
        | Some r -> r.Relation.size
        | None -> 0);
    distinct =
      (fun p probe ->
        match Symbol.Tbl.find_opt env.relations p with
        | Some r ->
          let probe = Array.of_list probe in
          if Relation.covers_row r probe then Some r.size
          else
            Option.map
              (fun (ix : Relation.index) -> ix.keys)
              (Relation.find_index r probe)
        | None -> None);
    transient = (fun p -> Symbol.Set.mem p transient);
    domain = Array.length (Lazy.force env.domain);
  }

let compile_and_plan env ~naive ~transient (c : Ndl.clause) =
  let nvars, names, head, body = Plan.compile c in
  let plan =
    if naive then
      (* legacy order first (its scoring expects lazily materialised EDB
         sizes), then materialise, preserving the pre-planner behaviour *)
      let ordered = Plan.trivial ~nvars (order_atoms env nvars body) in
      List.iter
        (function
          | CPred (p, ts) -> ignore (get_relation env p ~arity:(Array.length ts))
          | CEq _ | CDom _ -> ())
        body;
      ordered
    else begin
      List.iter
        (function
          | CPred (p, ts) -> ignore (get_relation env p ~arity:(Array.length ts))
          | CEq _ | CDom _ -> ())
        body;
      Plan.make (stats_of_env env ~transient) ~nvars body
    end
  in
  (match env.explain with
  | Some f ->
    let hp, hts = c.head in
    let args =
      String.concat ","
        (List.map (fun t -> Format.asprintf "%a" Ndl.pp_term t) hts)
    in
    f
      (Printf.sprintf "%s(%s) <- %s" (Symbol.name hp) args
         (Plan.describe ~names plan))
  | None -> ());
  { nvars; names; head; plan; steps = matcher ~nvars plan }

(* Per-row tests of a predicate step, as tail-recursive loops over the
   step's (position, value) pairs. *)
let rec consts_hold data off consts k =
  k = Array.length consts
  || data.(off + consts.(k)) = consts.(k + 1)
     && consts_hold data off consts (k + 2)

let rec agrees_hold data off binding agrees k =
  k = Array.length agrees
  || data.(off + agrees.(k)) = binding.(agrees.(k + 1))
     && agrees_hold data off binding agrees (k + 2)

(* Placeholders for a step's relation and index until the step is first
   reached: resolving lazily keeps index builds — which the planner's
   statistics see — exactly where the evaluation first probes. *)
let unresolved = Relation.create 0
let no_index = Relation.build_index unresolved [||]

(* Evaluate one compiled clause into [target]. *)
let eval_compiled env target cc =
  let { nvars; head; steps; _ } = cc in
  let nsteps = Array.length steps in
  let binding = Array.make nvars (-1) in
  let out = Array.make (Array.length head) 0 in
  let rels = Array.make nsteps unresolved in
  let indexes = Array.make nsteps no_index in
  let keys =
    Array.map
      (function Pred p -> Array.make (Array.length p.probe) 0 | _ -> [||])
      steps
  in
  let value = function CV i -> binding.(i) | CC c -> c in
  let emit () =
    for k = 0 to Array.length head - 1 do
      let v = value head.(k) in
      assert (v >= 0);
      out.(k) <- v
    done;
    if Relation.add target out 0 then Budget.grow env.budget
  in
  let resolve si p =
    let r = get_relation env p.pred ~arity:p.arity in
    rels.(si) <- r;
    (match p.strategy with
    | _ when p.whole -> ()
    | Plan.Index -> indexes.(si) <- Relation.index r p.probe
    | Plan.Hash -> indexes.(si) <- Relation.build_index r p.probe
    | Plan.Scan -> ());
    r
  in
  let rec go si =
    Budget.step env.budget;
    if si = nsteps then emit ()
    else
      match steps.(si) with
      | Pred p -> (
        let r = if rels.(si) == unresolved then resolve si p else rels.(si) in
        match p.strategy with
        | Plan.Scan ->
          (* every row; [visit] tests any bound positions inline *)
          for row = 0 to r.Relation.size - 1 do
            visit si p r row
          done
        | Plan.Index | Plan.Hash ->
          let key = keys.(si) in
          for k = 0 to Array.length key - 1 do
            key.(k) <- value p.key.(k)
          done;
          if p.whole then begin
            let row = Relation.find r key 0 in
            if row >= 0 then visit si p r row
          end
          else
            let ix = indexes.(si) in
            let row = ref (Relation.probe ix r key) in
            while !row >= 0 do
              visit si p r !row;
              row := ix.Relation.next.(!row)
            done)
      | Eq_test (t1, t2) -> if value t1 = value t2 then go (si + 1)
      | Eq_bind (i, t) ->
        binding.(i) <- value t;
        go (si + 1)
      | Eq_sweep (i, j) ->
        (* last resort: both sides range over the active domain *)
        let domain = Lazy.force env.domain in
        for k = 0 to Array.length domain - 1 do
          let c = domain.(k) in
          env.reads <- env.reads + 1;
          binding.(i) <- c;
          binding.(j) <- c;
          go (si + 1)
        done
      | Dom_test t ->
        let domain = Lazy.force env.domain in
        if sorted_mem domain (value t) 0 (Array.length domain) then go (si + 1)
      | Dom_sweep i ->
        let domain = Lazy.force env.domain in
        for k = 0 to Array.length domain - 1 do
          let c = domain.(k) in
          env.reads <- env.reads + 1;
          binding.(i) <- c;
          go (si + 1)
        done
  and visit si p (r : Relation.t) row =
    let data = r.data and off = row * p.arity in
    env.reads <- env.reads + 1;
    if consts_hold data off p.consts 0 then begin
      let binds = p.binds in
      for k = 0 to (Array.length binds lsr 1) - 1 do
        binding.(binds.((2 * k) + 1)) <- data.(off + binds.(2 * k))
      done;
      if agrees_hold data off binding p.agrees 0 then go (si + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Compiled programs and the plan cache.

   The stratum structure (from [Ndl.strata]) and the clause groupings are
   data-independent and built upfront; per-clause plans are filled in
   lazily during the first evaluation, when the relations a clause reads
   have their true sizes (a fixpoint's delta variants are planned after
   round 0, against the actual base deltas).  A [plan_cache] keeps the
   whole compiled program across runs of the same query value: [Prepared]
   queries replan only when the store size drifts past a threshold. *)

(* A renaming clause [p(a_π) <- s(a)] ({!Demand.renaming_of}): [p(t)]
   holds exactly when [s(u)] does, with [u_j = t_(perm j)]. *)
type renaming = Demand.renaming = {
  src : Symbol.t;
  arity : int;
  perm : int array;
  identity : bool;  (* [perm.(j) = j] for every [j]: [p] holds [s]'s rows *)
}

(* A non-recursive, non-goal IDB predicate defined by one renaming: it has
   no relation, and every atom over it is compiled as the permuted atom
   over [vrenaming.src], the first predicate down the chain of views that
   is not one. *)
type cview = {
  vclause : Ndl.clause;  (* its clause, the body atom resolved to the source *)
  vrenaming : renaming;
}

type cstraight = {
  spred : Symbol.t;
  sarity : int;
  sclauses : Ndl.clause list;
  srenamings : (Ndl.clause * renaming) list option;
      (* [Some] when every clause is a renaming (planned engine only): a run
         where exactly one source is non-empty and renamed by the identity
         shares that source's relation instead of copying it *)
  mutable sccs : compiled list option;
  mutable sestimate : float;
      (* the planned rows: Σ [est_out] over [sccs], set with them *)
}

type cfixpoint = {
  fpreds : (Symbol.t * int) array;
  fdelta : Symbol.t array;  (* delta symbol per predicate, aligned *)
  ftransient : Symbol.Set.t;  (* the delta symbols, for the planner *)
  fbase_clauses : (int * Ndl.clause) list;
  fvariant_clauses : (int * Ndl.clause) list;
  mutable fbase : (int * compiled) list option;
  mutable fvariants : (int * compiled) list option;
}

type cstratum = CStraight of cstraight | CFixpoint of cfixpoint | CView of cview

type cached = {
  cfor : Ndl.query;  (* physical identity of the planned query *)
  cnaive : bool;
  catoms : int;  (* ABox size at plan time, for the replan threshold *)
  cedb : (Symbol.t * int) array;  (* [Demand.edb_atoms cfor] *)
  cempty : bool array;  (* which of [cedb] were empty at plan time *)
  cdemand : Demand.t;  (* [cfor] transformed for that emptiness *)
  cstrata : cstratum array;  (* [cdemand.query] compiled *)
}

type plan_cache = { mutable entries : cached list }
(* most recent first: one per emptiness of the program's EDB relations,
   at most [cache_entries] *)

let plan_cache () = { entries = [] }
let cache_entries = 4

let replan_factor = 2.0
(* a cached plan survives while |ABox| stays within this factor of its
   plan-time size in either direction *)

(* One delta variant per in-stratum body atom: that atom probes the delta
   relation, every other atom the full one. *)
let delta_variants scc delta_of (c : Ndl.clause) =
  let rec go prefix acc = function
    | [] -> List.rev acc
    | (Ndl.Pred (p, ts) as a) :: rest when Symbol.Set.mem p scc ->
      let variant =
        {
          c with
          Ndl.body =
            List.rev_append prefix
              (Ndl.Pred (Symbol.Map.find p delta_of, ts) :: rest);
        }
      in
      go (a :: prefix) (variant :: acc) rest
    | a :: rest -> go (a :: prefix) acc rest
  in
  go [] [] c.Ndl.body

let skeleton ~naive (q : Ndl.query) =
  let by_head = Symbol.Tbl.create 16 in
  List.iter
    (fun (c : Ndl.clause) ->
      let cur =
        Option.value ~default:[] (Symbol.Tbl.find_opt by_head (fst c.head))
      in
      Symbol.Tbl.replace by_head (fst c.head) (c :: cur))
    q.clauses;
  (* the views found so far; strata come dependencies first, so a clause
     meets only views already found *)
  let views = Symbol.Tbl.create 16 in
  let through_views = function
    | Ndl.Pred (p, ts) as a -> (
      match Symbol.Tbl.find_opt views p with
      | None -> a
      | Some rn ->
        let n = List.length ts in
        if n <> rn.arity then
          Error.parse_error ~line:0 "relation %a is used with arities %d and %d"
            Symbol.pp p rn.arity n;
        let ts = Array.of_list ts in
        Ndl.Pred (rn.src, List.init n (fun j -> ts.(rn.perm.(j)))))
    | (Ndl.Eq _ | Ndl.Dom _) as a -> a
  in
  let clauses_of p =
    List.rev_map
      (fun (c : Ndl.clause) -> { c with body = List.map through_views c.body })
      (Option.value ~default:[] (Symbol.Tbl.find_opt by_head p))
  in
  let renamings clauses =
    if naive then None
    else
      List.fold_right
        (fun c acc ->
          match (Demand.renaming_of c, acc) with
          | Some rn, Some l -> Some ((c, rn) :: l)
          | _ -> None)
        clauses (Some [])
  in
  let arity_of = function
    | (c : Ndl.clause) :: _ -> List.length (snd c.head)
    | [] -> 0
  in
  let cstrata =
    List.map
      (fun (preds, recursive) ->
        match (preds, recursive) with
        | [ p ], false -> (
          let clauses = clauses_of p in
          match renamings clauses with
          | Some [ (c, rn) ] when not (Symbol.equal p q.goal) ->
            Symbol.Tbl.replace views p rn;
            CView { vclause = c; vrenaming = rn }
          | srenamings ->
            CStraight
              {
                spred = p;
                sarity = arity_of clauses;
                sclauses = clauses;
                srenamings;
                sccs = None;
                sestimate = 0.0;
              })
        | preds, _ ->
          let scc = Symbol.Set.of_list preds in
          let fpreds =
            Array.of_list
              (List.map (fun p -> (p, arity_of (clauses_of p))) preds)
          in
          let fdelta =
            Array.map
              (fun (p, _) -> Symbol.fresh ("delta:" ^ Symbol.name p))
              fpreds
          in
          let delta_of =
            snd
              (Array.fold_left
                 (fun (i, m) (p, _) ->
                   (i + 1, Symbol.Map.add p fdelta.(i) m))
                 (0, Symbol.Map.empty) fpreds)
          in
          let ftransient =
            Array.fold_left
              (fun acc d -> Symbol.Set.add d acc)
              Symbol.Set.empty fdelta
          in
          let base_clauses =
            List.concat
              (List.mapi
                 (fun i (p, _) ->
                   List.map (fun c -> (i, c)) (clauses_of p))
                 (Array.to_list fpreds))
          in
          let variant_clauses =
            List.concat_map
              (fun (i, c) ->
                List.map (fun v -> (i, v)) (delta_variants scc delta_of c))
              base_clauses
          in
          CFixpoint
            {
              fpreds;
              fdelta;
              ftransient;
              fbase_clauses = base_clauses;
              fvariant_clauses = variant_clauses;
              fbase = None;
              fvariants = None;
            })
      (Ndl.strata q)
  in
  Array.of_list cstrata

let edb_empty env (p, arity) =
  match edb_relation env p ~arity with
  | Some r -> r.Relation.size = 0
  | None -> true

(* A cached plan serves while the ABox stays within [replan_factor] of its
   plan-time size and every EDB relation the program reads is as empty, or
   as non-empty, as it was: the entry for the current emptiness, found
   with one lookup per EDB predicate. *)
let cache_disposition env ?plan ~naive (q : Ndl.query) =
  match plan with
  | None -> `Uncached
  | Some cache -> (
    let mine (cp : cached) = cp.cfor == q && cp.cnaive = naive in
    match List.find_opt mine cache.entries with
    | None -> if cache.entries = [] then `Fresh else `Replan
    | Some cp -> (
      let empty = Array.map (edb_empty env) cp.cedb in
      let ratio cp =
        float_of_int (Abox.num_atoms env.abox) /. float_of_int (max 1 cp.catoms)
      in
      match
        List.find_opt
          (fun cp ->
            mine cp && cp.cempty = empty
            && ratio cp >= 1.0 /. replan_factor
            && ratio cp <= replan_factor)
          cache.entries
      with
      | Some cp -> `Hit cp
      | None -> `Replan))

(* Keep [cp] first, with the other emptinesses of its program. *)
let remember cache cp =
  let others =
    List.filter
      (fun (e : cached) -> e.cfor == cp.cfor && e.cnaive = cp.cnaive && e.cempty <> cp.cempty)
      cache.entries
  in
  cache.entries <- cp :: List.filteri (fun i _ -> i < cache_entries - 1) others

(* ------------------------------------------------------------------ *)
(* Stratum drivers *)

let round_marker () =
  Fault.hit Fault.eval_ndl_round;
  Obs.incr "eval.rounds"

let explain_renaming env (c : Ndl.clause) how =
  match env.explain with
  | Some f -> f (Format.asprintf "%a  %s" Ndl.pp_clause c how)
  | None -> ()

(* A view reads its source in place; it is charged the tuples a copy would
   hold, once the source is complete. *)
let eval_view env (v : cview) =
  let r = get_relation env v.vrenaming.src ~arity:v.vrenaming.arity in
  explain_renaming env v.vclause "view";
  Budget.charge env.budget r.size

(* The relation a renaming stratum shares: its one non-empty source's,
   when the identity renames it. *)
let shared_source env renamings =
  let live =
    List.filter_map
      (fun (c, rn) ->
        let r = get_relation env rn.src ~arity:rn.arity in
        if r.Relation.size > 0 then Some (c, rn, r) else None)
      renamings
  in
  match live with [ (c, rn, r) ] when rn.identity -> Some (c, r) | _ -> None

(* The rows to allocate for a relation of [arity] planned to hold
   [estimate]: no more than |ind(A)|^arity, which O(1) gives without
   building ⊤, nor than the size the budget has left, nor than
   [Relation.max_capacity], which also keeps the conversion in range. *)
let capacity env ~arity estimate =
  let tuples = float_of_int (Abox.num_individuals env.abox) ** float_of_int arity in
  let rows = Float.min estimate tuples in
  let rows =
    match Budget.size_remaining env.budget with
    | Some left -> Float.min rows (float_of_int left)
    | None -> rows
  in
  if rows >= 1.0 then int_of_float (Float.min rows (float_of_int Relation.max_capacity))
  else 0

(* Whether the stratum shared a source's relation instead of deriving. *)
let eval_straight env ~naive (st : cstraight) =
  round_marker ();
  match Option.bind st.srenamings (shared_source env) with
  | Some (c, r) ->
    Symbol.Tbl.replace env.relations st.spred r;
    explain_renaming env c "shared";
    Budget.charge env.budget r.size;
    true
  | None ->
    (* a non-recursive stratum's clauses never read its own predicate, so
       the relation can wait for the plans that size it *)
    let ccs =
      match st.sccs with
      | Some ccs -> ccs
      | None ->
        let ccs =
          List.map
            (compile_and_plan env ~naive ~transient:Symbol.Set.empty)
            st.sclauses
        in
        st.sccs <- Some ccs;
        st.sestimate <-
          List.fold_left (fun acc cc -> acc +. cc.plan.Plan.est_out) 0.0 ccs;
        ccs
    in
    (* created at its planned size (a naive plan estimates nothing) *)
    let target =
      Relation.create ~capacity:(capacity env ~arity:st.sarity st.sestimate) st.sarity
    in
    Symbol.Tbl.replace env.relations st.spred target;
    (* the stratum derived its fresh relation's tuples, but for one a size
       cap refused: [emit] stores a tuple before charging it *)
    let derived refused =
      if target.size > refused then
        Obs.count "eval.derived_facts" (target.size - refused)
    in
    (try List.iter (eval_compiled env target) ccs
     with e ->
       derived
         (match e with
         | Error.Obda_error (Budget_exhausted { resource = Size; _ }) -> 1
         | _ -> 0);
       raise e);
    derived 0;
    false

(* Semi-naïve fixpoint for a recursive stratum (naïve re-derivation when
   [naive]).  Derivation happens into per-round accumulators; the round
   loop counts the genuinely new tuples and fires the per-round fault site
   / counters, so telemetry means the same thing it does on the straight
   path. *)
let eval_fixpoint env ~naive (fx : cfixpoint) =
  let fulls =
    Array.map
      (fun (p, arity) ->
        let r = Relation.create arity in
        Symbol.Tbl.replace env.relations p r;
        r)
      fx.fpreds
  in
  let fresh_accs () =
    Array.map (fun (r : Relation.t) -> Relation.create r.arity) fulls
  in
  let derive accs ccs =
    List.iter (fun (ti, cc) -> eval_compiled env accs.(ti) cc) ccs
  in
  let merge accs =
    let added = ref 0 in
    let deltas =
      Array.mapi
        (fun i (acc : Relation.t) ->
          let delta = Relation.create acc.arity in
          Relation.add_all fulls.(i) acc (fun data off h ->
              incr added;
              ignore (Relation.add_hashed delta data off h));
          delta)
        accs
    in
    Obs.count "eval.derived_facts" !added;
    (deltas, !added)
  in
  let compile_assignments ~naive clauses =
    List.map
      (fun (ti, c) ->
        (ti, compile_and_plan env ~naive ~transient:fx.ftransient c))
      clauses
  in
  let base_ccs =
    match fx.fbase with
    | Some ccs -> ccs
    | None ->
      let ccs = compile_assignments ~naive fx.fbase_clauses in
      fx.fbase <- Some ccs;
      ccs
  in
  if naive then begin
    (* naïve fixpoint: re-derive every clause from the full relations *)
    let rec loop () =
      round_marker ();
      let accs = fresh_accs () in
      derive accs base_ccs;
      let _, added = merge accs in
      if added > 0 then loop ()
    in
    loop ()
  end
  else begin
    round_marker ();
    let acc0 = fresh_accs () in
    derive acc0 base_ccs;
    let deltas0, added0 = merge acc0 in
    if added0 > 0 then begin
      let register deltas =
        Array.iteri
          (fun i d -> Symbol.Tbl.replace env.relations fx.fdelta.(i) d)
          deltas
      in
      register deltas0;
      (* delta variants are planned once, here, against the true round-0
         sizes of the full and delta relations *)
      let variant_ccs =
        match fx.fvariants with
        | Some ccs -> ccs
        | None ->
          let ccs = compile_assignments ~naive:false fx.fvariant_clauses in
          fx.fvariants <- Some ccs;
          ccs
      in
      let rec loop deltas =
        register deltas;
        round_marker ();
        let accs = fresh_accs () in
        derive accs variant_ccs;
        let deltas', added = merge accs in
        if added > 0 then loop deltas'
      in
      loop deltas0;
      (* the delta views are dead past the fixpoint *)
      Array.iter (fun d -> Symbol.Tbl.remove env.relations d) fx.fdelta
    end
  end

(* ------------------------------------------------------------------ *)

let plan_gauges cstrata =
  let index_probes = ref 0
  and hash_joins = ref 0
  and scans = ref 0
  and reordered = ref 0 in
  let note (cc : compiled) =
    if cc.plan.Plan.reordered then incr reordered;
    List.iter
      (fun (s : Plan.step) ->
        match s.atom with
        | CPred _ -> (
          match s.strategy with
          | Plan.Index -> incr index_probes
          | Plan.Hash -> incr hash_joins
          | Plan.Scan -> incr scans)
        | CEq _ | CDom _ -> ())
      cc.plan.Plan.steps
  in
  Array.iter
    (function
      | CStraight st -> List.iter note (Option.value ~default:[] st.sccs)
      | CFixpoint fx ->
        List.iter (fun (_, cc) -> note cc) (Option.value ~default:[] fx.fbase);
        List.iter
          (fun (_, cc) -> note cc)
          (Option.value ~default:[] fx.fvariants)
      | CView _ -> ())
    cstrata;
  Obs.set_int "eval.plan.index_probes" !index_probes;
  Obs.set_int "eval.plan.hash_joins" !hash_joins;
  Obs.set_int "eval.plan.scans" !scans;
  Obs.set_int "eval.plan.reordered" !reordered

let explain_demand f (d : Demand.t) =
  List.iter
    (fun (c, a) ->
      f (Format.asprintf "drop %a  empty %a" Ndl.pp_clause c Ndl.pp_atom a))
    d.dropped;
  List.iter
    (fun preds -> f ("skip " ^ String.concat "," (List.map Symbol.name preds)))
    d.skipped;
  List.iter
    (fun (r : Demand.restriction) ->
      f
        (Printf.sprintf "restrict %s on [%s] by %s  demand~%.3g of %.3g keys  full~%.3g"
           (Symbol.name r.pred)
           (String.concat "," (List.map string_of_int r.positions))
           (Symbol.name r.magic) r.demand r.keys r.full))
    d.restricted

let evaluate env ~goal_directed ~disposition ~domain ?plan ~naive
    (q : Ndl.query) =
  let abox = env.abox in
  let program =
    match disposition with
    | `Hit cp -> cp
    | `Replan | `Fresh | `Uncached ->
      let cedb = Array.of_list (Demand.edb_atoms q) in
      let cempty = Array.map (edb_empty env) cedb in
      let cdemand =
        Demand.transform ~goal_directed
          ~relation:(fun p arity -> edb_relation env p ~arity)
          ~domain q
      in
      Option.iter (fun f -> explain_demand f cdemand) env.explain;
      let cp =
        {
          cfor = q;
          cnaive = naive;
          catoms = Abox.num_atoms abox;
          cedb;
          cempty;
          cdemand;
          cstrata = skeleton ~naive cdemand.query;
        }
      in
      Option.iter (fun cache -> remember cache cp) plan;
      cp
  in
  (match disposition with
  | `Hit _ -> Obs.incr "eval.plan.cache_hits"
  | `Replan -> Obs.incr "eval.plan.replans"
  | `Fresh | `Uncached -> ());
  let tq = program.cdemand.query in
  let idb = Ndl.idb_preds tq in
  let renamed = ref 0 in
  Array.iter
    (function
      | CStraight st -> if eval_straight env ~naive st then incr renamed
      | CFixpoint fx -> eval_fixpoint env ~naive fx
      | CView v ->
        eval_view env v;
        incr renamed)
    program.cstrata;
  let views =
    Array.fold_left
      (fun acc -> function CView v -> v :: acc | CStraight _ | CFixpoint _ -> acc)
      [] program.cstrata
  in
  let source v = Symbol.Tbl.find env.relations v.vrenaming.src in
  (* a view counts as the relation it renames: the tuples it holds *)
  let generated_tuples =
    Symbol.Set.fold
      (fun p acc ->
        match Symbol.Tbl.find_opt env.relations p with
        | Some r -> acc + r.size
        | None -> acc)
      idb 0
    + List.fold_left (fun acc v -> acc + (source v).size) 0 views
  in
  let answers =
    match Symbol.Tbl.find_opt env.relations tq.goal with
    | Some r when Symbol.Set.mem tq.goal idb -> Relation.tuples r
    | Some _ | None -> []
  in
  let idb_relations =
    lazy
      (let permuted v =
         let src = source v and rn = v.vrenaming in
         let r = Relation.create rn.arity and row = Array.make rn.arity 0 in
         for id = 0 to src.size - 1 do
           for j = 0 to rn.arity - 1 do
             row.(rn.perm.(j)) <- src.data.((id * rn.arity) + j)
           done;
           ignore (Relation.add r row 0)
         done;
         r
       in
       let evaluated =
         List.fold_left
           (fun acc v -> Symbol.Map.add (fst v.vclause.head) (permuted v) acc)
           (Symbol.Set.fold
              (fun p acc ->
                match Symbol.Tbl.find_opt env.relations p with
                | Some r -> Symbol.Map.add p r acc
                | None -> acc)
              idb Symbol.Map.empty)
           views
       in
       if goal_directed then evaluated
       else
         (* a predicate whose every clause was dropped holds nothing *)
         Symbol.Set.fold
           (fun p acc ->
             if Symbol.Map.mem p acc then acc
             else
               Symbol.Map.add p
                 (Relation.create (Option.value ~default:0 (Ndl.arity_of q p)))
                 acc)
           (Ndl.idb_preds q) evaluated)
  in
  (match env.explain with
  | Some f ->
    List.iter
      (fun (r : Demand.restriction) ->
        let rows =
          match Symbol.Tbl.find_opt env.relations r.pred with
          | Some rel -> rel.size
          | None -> 0
        in
        f (Printf.sprintf "restricted %s rows=%d" (Symbol.name r.pred) rows))
      program.cdemand.restricted
  | None -> ());
  if Obs.enabled () then begin
    Obs.set_int "eval.answers" (List.length answers);
    Obs.set_int "eval.generated_tuples" generated_tuples;
    Obs.set_int "eval.views" !renamed;
    Obs.count "eval.tuples_read" env.reads;
    plan_gauges program.cstrata;
    if Budget.is_limited env.budget then begin
      Obs.set_int "budget.steps" (Budget.steps_spent env.budget);
      Obs.set_int "budget.size" (Budget.size_spent env.budget)
    end
  end;
  { answers; generated_tuples; tuples_read = env.reads; idb_relations }

let observed ~goal_directed ?plan ~naive ~budget ~edb ~extra_domain ~explain q
    abox =
  let domain =
    lazy
      (let ids = List.map (fun (c : Abox.const) -> (c :> int)) in
       let inds = Abox.individuals abox in
       Array.of_list
         (match extra_domain with
         | [] -> ids inds
         | extra -> List.sort_uniq Int.compare (ids (inds @ extra))))
  in
  let env =
    {
      relations = Symbol.Tbl.create 64;
      abox;
      external_edb = edb;
      external_relations = Symbol.Tbl.create 8;
      domain;
      budget;
      explain;
      reads = 0;
    }
  in
  let disposition = cache_disposition env ?plan ~naive q in
  let plan_attr =
    if naive then "naive"
    else
      match disposition with
      | `Hit _ -> "cached"
      | `Replan -> "replanned"
      | `Fresh | `Uncached -> "fresh"
  in
  Obs.with_span ~attrs:[ ("plan", plan_attr) ] "eval.ndl" (fun () ->
      evaluate env ~goal_directed ~disposition
        ~domain:(Abox.num_individuals abox + List.length extra_domain)
        ?plan ~naive q)

let run ?plan ?(naive = false) ?(budget = Budget.none)
    ?(edb = fun _ _ -> None) ?(extra_domain = []) ?explain q abox =
  observed ~goal_directed:true ?plan ~naive ~budget ~edb ~extra_domain ~explain
    q abox

let materialise ?(naive = false) ?(budget = Budget.none)
    ?(edb = fun _ _ -> None) ?(extra_domain = []) ?explain q abox =
  observed ~goal_directed:false ~naive ~budget ~edb ~extra_domain ~explain q
    abox

let answers ?budget ?plan q abox = (run ?budget ?plan q abox).answers

let boolean q abox =
  match (run q abox).answers with [] -> false | _ :: _ -> true
