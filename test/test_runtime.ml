(* The resource-governed execution layer: typed parse errors over a
   malformed-input corpus, budget exhaustion in the chase / rewriting /
   evaluation loops, and the graceful-degradation chain of Omq. *)

open Obda_syntax
open Obda_ontology
open Obda_cq
open Obda_parse
module Error = Obda_runtime.Error
module Budget = Obda_runtime.Budget
module Fault = Obda_runtime.Fault
module Omq = Obda_rewriting.Omq
module Obs = Obda_obs.Obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let sym s = Symbol.intern s

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Typed parse errors on malformed input *)

let parse_error_of f =
  match f () with
  | _ -> None
  | exception Error.Obda_error (Error.Parse_error { loc; msg; source_line }) ->
    Some (loc, msg, source_line)
  | exception _ -> None

let test_malformed_corpus () =
  (* each case: description, thunk, expected (line, column option) *)
  let cases =
    [
      ( "bad token",
        (fun () -> ignore (Parse.ontology_of_string "A(x) -> %B(x)\n")),
        Some (1, Some 9) );
      ( "bad token, later line",
        (fun () ->
          ignore (Parse.ontology_of_string "A(x) -> B(x)\nB(x) -> C(x)!\n")),
        Some (2, Some 13) );
      ( "truncated axiom",
        (fun () -> ignore (Parse.ontology_of_string "A(x) ->\n")),
        Some (1, None) );
      ( "arity clash in one axiom",
        (fun () -> ignore (Parse.ontology_of_string "A(x,y,z) -> B(x)\n")),
        Some (1, None) );
      ( "dangling inverse role",
        (fun () -> ignore (Parse.ontology_of_string "P(x,y) -> R(y,\n")),
        Some (1, None) );
      ( "truncated query",
        (fun () -> ignore (Parse.query_of_string "q(x) <- R(x,")),
        Some (1, None) );
      ( "query keyword misuse",
        (fun () -> ignore (Parse.query_of_string "q(x) <- false")),
        Some (1, None) );
      ( "non-ground fact",
        (fun () -> ignore (Parse.data_of_string "A(a)\nR(b,_)\n")),
        Some (2, None) );
      ( "truncated source row",
        (fun () -> ignore (Parse.source_of_string "t(a,")),
        Some (1, None) );
      ( "mapping without arrow",
        (fun () -> ignore (Parse.mapping_of_string "Employee(x) employees(x)")),
        Some (1, None) );
    ]
  in
  List.iter
    (fun (name, thunk, expected) ->
      match (parse_error_of thunk, expected) with
      | Some (loc, msg, source_line), Some (line, col) ->
        let e = Error.Parse_error { loc; msg; source_line } in
        check_int (name ^ ": line") line loc.Error.line;
        (match col with
        | Some c -> check (name ^ ": column") true (loc.Error.column = Some c)
        | None -> ());
        check_str (name ^ ": class slug") "parse" (Error.class_name e);
        check_int (name ^ ": exit code") 2 (Error.exit_code e)
      | None, Some _ -> Alcotest.failf "%s: expected a typed parse error" name
      | _, None -> ())
    cases

let test_parse_error_payload () =
  (* file name and the verbatim offending line are recorded *)
  match
    parse_error_of (fun () ->
        ignore (Parse.ontology_of_string ~file:"bad.onto" "A(x) -> ?B(x)\n"))
  with
  | None -> Alcotest.fail "expected a parse error"
  | Some (loc, msg, source_line) ->
    check "file recorded" true (loc.Error.file = Some "bad.onto");
    check "source line recorded" true (source_line = Some "A(x) -> ?B(x)");
    let s = Error.to_string (Error.Parse_error { loc; msg; source_line }) in
    check "machine line has class" true (contains s "class=parse");
    check "machine line has file" true (contains s "file=bad.onto")

let test_duplicate_answer_vars_are_parse_errors () =
  (* Cq.make rejects duplicated answer variables with Invalid_argument; the
     parser converts that to the parse class so the CLI exits 2, not 1 *)
  match parse_error_of (fun () -> ignore (Parse.query_of_string "q(x,x) <- A(x)")) with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a typed parse error"

(* ------------------------------------------------------------------ *)
(* Budgets *)

let deep_tbox () =
  (* A ⊑ ∃R, ∃R⁻ ⊑ A: the canonical model is an infinite R-chain *)
  Tbox.make
    [
      Tbox.Concept_incl
        (Concept.Name (sym "A"), Concept.Exists (Role.of_string "R"));
      Tbox.Concept_incl
        (Concept.Exists (Role.of_string "R-"), Concept.Name (sym "A"));
    ]

let budget_error f =
  match f () with
  | _ -> None
  | exception Error.Obda_error ((Error.Budget_exhausted _) as e) -> Some e
  | exception _ -> None

let test_chase_step_budget () =
  let tbox = deep_tbox () in
  let abox = Obda_data.Abox.create () in
  Obda_data.Abox.add_unary abox (sym "A") (sym "a");
  let budget = Budget.create ~max_steps:50 () in
  match
    budget_error (fun () ->
        Obda_chase.Canonical.make ~budget tbox abox ~depth:10_000)
  with
  | Some (Error.Budget_exhausted { resource = Error.Steps; spent; limit }) ->
    check_int "limit echoed" 50 limit;
    check "stopped promptly" true (spent <= limit + 1)
  | _ -> Alcotest.fail "expected Budget_exhausted {resource = Steps}"

let test_chase_size_budget () =
  let tbox = deep_tbox () in
  let abox = Obda_data.Abox.create () in
  Obda_data.Abox.add_unary abox (sym "A") (sym "a");
  let budget = Budget.create ~max_size:20 () in
  match
    budget_error (fun () ->
        Obda_chase.Canonical.make ~budget tbox abox ~depth:10_000)
  with
  | Some (Error.Budget_exhausted { resource = Error.Size; _ }) -> ()
  | _ -> Alcotest.fail "expected Budget_exhausted {resource = Size}"

let test_deadline_budget () =
  (* an already-expired deadline fires within one check interval (1024
     steps), without waiting for the step or size caps *)
  let budget = Budget.create ~timeout:0.0 () in
  let fired = ref false in
  (try
     for _ = 1 to 5000 do
       Budget.step budget
     done
   with Error.Obda_error (Error.Budget_exhausted { resource = Error.Wall_clock; _ })
   -> fired := true);
  check "expired deadline detected" true !fired

let test_rewriter_budget () =
  let tbox = deep_tbox () in
  let q =
    Cq.make ~answer:[ "x" ]
      [ Cq.Binary (sym "R", "x", "y"); Cq.Unary (sym "A", "y") ]
  in
  let omq = Omq.make tbox q in
  (* unbudgeted baseline works *)
  check "Tw rewriting exists" true
    (Obda_ndl.Ndl.num_clauses (Omq.rewrite Omq.Tw omq) > 0);
  match
    budget_error (fun () ->
        Omq.rewrite ~budget:(Budget.create ~max_steps:1 ()) Omq.Tw omq)
  with
  | Some _ -> ()
  | None -> Alcotest.fail "expected the Tw rewriter to hit a 1-step budget"

(* a two-hop path query over a dense R graph: cheap to rewrite, costly to
   evaluate *)
let two_hop_omq () =
  let tbox = Tbox.make [] in
  let q =
    Cq.make ~answer:[ "x"; "z" ]
      [ Cq.Binary (sym "R", "x", "y"); Cq.Binary (sym "R", "y", "z") ]
  in
  let abox = Obda_data.Abox.create () in
  for i = 0 to 40 do
    for j = 0 to 40 do
      if (i + j) mod 3 = 0 then
        Obda_data.Abox.add_binary abox (sym "R")
          (sym (Printf.sprintf "c%d" i))
          (sym (Printf.sprintf "c%d" j))
    done
  done;
  (Omq.make tbox q, abox)

let test_eval_budget () =
  let omq, abox = two_hop_omq () in
  let unbudgeted = Omq.answer ~algorithm:Omq.Tw omq abox in
  check "unbudgeted evaluation answers" true (unbudgeted <> []);
  match
    budget_error (fun () ->
        Omq.answer
          ~budget:(Budget.create ~max_steps:100 ())
          ~algorithm:Omq.Tw omq abox)
  with
  | Some _ -> ()
  | None -> Alcotest.fail "expected evaluation to hit a 100-step budget"

let test_answer_explain () =
  (* [~explain] reports the plans of the run that answers, under the same
     budget: no second, unbudgeted evaluation *)
  let omq, abox = two_hop_omq () in
  let explained ?budget () =
    let lines = ref 0 in
    match
      Omq.answer ?budget ~explain:(fun _ -> incr lines) ~algorithm:Omq.Tw omq
        abox
    with
    | answers -> (Ok answers, !lines)
    | exception Error.Obda_error e -> (Error e, !lines)
  in
  let answers, planned = explained () in
  check "same answers as without explain" true
    (answers = Ok (Omq.answer ~algorithm:Omq.Tw omq abox));
  check "at least one plan line" true (planned > 0);
  let budget () = Budget.create ~max_steps:100 () in
  check "the rewriting fits the step budget" true
    (Obda_ndl.Ndl.num_clauses (Omq.rewrite ~budget:(budget ()) Omq.Tw omq) > 0);
  let plain =
    match Omq.answer ~budget:(budget ()) ~algorithm:Omq.Tw omq abox with
    | _ -> Alcotest.fail "expected plain evaluation to exhaust 100 steps"
    | exception
        Error.Obda_error
          (Error.Budget_exhausted { resource = Error.Steps; _ } as e) ->
      e
  in
  let outcome, cut = explained ~budget:(budget ()) () in
  check "explain exhausts the same step budget" true (outcome = Error plain);
  check "plans stop where the budget stops the run" true (cut < planned)

let test_sub_budget_shares_deadline () =
  (* a step cap far beyond the 1024-step clock-check interval, so the
     expired shared deadline is what fires in the child *)
  let b = Budget.create ~timeout:0.0 ~max_steps:100_000 () in
  let child = Budget.sub b in
  let fired = ref false in
  (try
     for _ = 1 to 5000 do
       Budget.step child
     done
   with
   | Error.Obda_error (Error.Budget_exhausted { resource = Error.Wall_clock; _ })
   -> fired := true);
  check "sub-budget inherits the parent deadline" true !fired;
  (* but counters restart: a fresh sub-budget of an unlimited-clock parent
     can spend its full step allowance again *)
  let b = Budget.create ~max_steps:10 () in
  (try
     for _ = 1 to 10 do
       Budget.step b
     done
   with _ -> Alcotest.fail "parent should afford 10 steps");
  check_int "parent spent" 10 (Budget.steps_spent b);
  let child = Budget.sub b in
  check_int "child counters restart" 0 (Budget.steps_spent child)

(* ------------------------------------------------------------------ *)
(* Graceful degradation *)

let cyclic_omq () =
  let tbox =
    Tbox.make
      [
        Tbox.Role_incl (Role.of_string "P", Role.of_string "R");
        Tbox.Concept_incl
          (Concept.Name (sym "A"), Concept.Exists (Role.of_string "R"));
      ]
  in
  (* a triangle: not tree-shaped, so Tw / Presto* are not applicable *)
  let q =
    Cq.make ~answer:[ "x" ]
      [
        Cq.Binary (sym "R", "x", "y");
        Cq.Binary (sym "R", "y", "z");
        Cq.Binary (sym "R", "z", "x");
      ]
  in
  Omq.make tbox q

let triangle_abox () =
  let abox = Obda_data.Abox.create () in
  Obda_data.Abox.add_binary abox (sym "P") (sym "a") (sym "b");
  Obda_data.Abox.add_binary abox (sym "R") (sym "b") (sym "c");
  Obda_data.Abox.add_binary abox (sym "P") (sym "c") (sym "a");
  abox

let test_fallback_recovers () =
  let omq = cyclic_omq () in
  let abox = triangle_abox () in
  let r = Omq.answer_with_fallback ~chain:[ Omq.Tw; Omq.Ucq ] omq abox in
  check "fell through to UCQ" true (r.Omq.answered_by = Some Omq.Ucq);
  check_int "both attempts recorded" 2 (List.length r.Omq.attempts);
  (match r.Omq.attempts with
  | [
   { Omq.algorithm = Omq.Tw; outcome = Error (Error.Not_applicable _); _ };
   { Omq.algorithm = Omq.Ucq; outcome = Ok (); _ };
  ] ->
    ()
  | _ ->
    Alcotest.fail
      "expected a failed Tw attempt followed by a successful Ucq one");
  List.iter
    (fun (a : Omq.attempt) ->
      check "attempt duration is non-negative" true (a.Omq.duration >= 0.))
    r.Omq.attempts;
  check "answers found" true (r.Omq.answers <> []);
  (* the fallback answers agree with the chase ground truth *)
  let expected = List.sort compare (Omq.answer_certain omq abox) in
  check "agrees with certain answers" true
    (List.sort compare r.Omq.answers = expected)

let test_default_chain_covers_every_omq () =
  let omq = cyclic_omq () in
  let abox = triangle_abox () in
  (* no explicit chain: the default one must route around Tw by itself *)
  let r = Omq.answer_with_fallback omq abox in
  check "answered" true (r.Omq.answered_by <> None);
  check "not by a tree-witness algorithm" true
    (r.Omq.answered_by <> Some Omq.Tw && r.Omq.answered_by <> Some Omq.Presto_like)

let test_fallback_reports_budget_failures () =
  (* applicable algorithm, hopeless budget: the chain records the budget
     failure of the first attempt and answers with the second (which gets a
     fresh step allowance) — here both get no step cap because only wall
     clock is limited, so instead cap steps and rely on the UCQ engine
     being cheaper than the step cap on this tiny input *)
  let omq = cyclic_omq () in
  let abox = triangle_abox () in
  match
    Omq.answer_with_fallback
      ~budget:(Budget.create ~max_steps:2 ())
      ~chain:[ Omq.Ucq_condensed; Omq.Ucq ] omq abox
  with
  | r ->
    (* whichever attempt answered, every recorded failure must be typed *)
    List.iter
      (fun (a : Omq.attempt) ->
        match a.Omq.outcome with
        | Ok () | Error (Error.Budget_exhausted _ | Error.Not_applicable _) ->
          ()
        | Error _ -> Alcotest.fail "unexpected attempt error class")
      r.Omq.attempts
  | exception Error.Obda_error (Error.Budget_exhausted _) ->
    (* every algorithm ran out of its (tiny) allowance: also acceptable,
       and the error is the typed one *)
    ()

let test_empty_chain_rejected () =
  let omq = cyclic_omq () in
  let abox = triangle_abox () in
  check "empty chain is a caller bug" true
    (try
       ignore (Omq.answer_with_fallback ~chain:[] omq abox);
       false
     with Invalid_argument _ -> true)

let test_inconsistent_error_mode () =
  let tbox =
    Tbox.make
      [ Tbox.Concept_disj (Concept.Name (sym "A"), Concept.Name (sym "B")) ]
  in
  let q = Cq.make ~answer:[ "x" ] [ Cq.Unary (sym "A", "x") ] in
  let omq = Omq.make tbox q in
  let abox = Obda_data.Abox.create () in
  Obda_data.Abox.add_unary abox (sym "A") (sym "a");
  Obda_data.Abox.add_unary abox (sym "B") (sym "a");
  (* default: the paper's every-tuple convention *)
  check "convention returns ind(A)" true (Omq.answer omq abox = [ [ sym "a" ] ]);
  (* error mode: typed Inconsistent_data, exit code 5 *)
  match Omq.answer ~on_inconsistent:`Error omq abox with
  | _ -> Alcotest.fail "expected Inconsistent_data"
  | exception Error.Obda_error ((Error.Inconsistent_data _) as e) ->
    check_int "exit code 5" 5 (Error.exit_code e);
    check_str "class slug" "inconsistent" (Error.class_name e)

(* ------------------------------------------------------------------ *)
(* The error type itself *)

let test_error_rendering () =
  check_str "budget line"
    "class=budget resource=steps spent=1001 limit=1000"
    (Error.to_string
       (Error.Budget_exhausted
          { resource = Error.Steps; spent = 1001; limit = 1000 }));
  check_str "not-applicable line"
    "class=not-applicable algorithm=Tw reason=\"CQ is not tree-shaped\""
    (Error.to_string
       (Error.Not_applicable
          { algorithm = "Tw"; reason = "CQ is not tree-shaped" }));
  check_int "internal exit code" 1 (Error.exit_code (Error.Internal "boom"));
  (* of_exn maps stray stdlib exceptions into the taxonomy *)
  (match Error.of_exn (Invalid_argument "x") with
  | Some (Error.Internal "x") -> ()
  | _ -> Alcotest.fail "Invalid_argument should map to Internal");
  check "unknown exceptions stay unknown" true (Error.of_exn Exit = None);
  match Error.protect (fun () -> failwith "kaput") with
  | Error (Error.Internal "kaput") -> ()
  | _ -> Alcotest.fail "protect should catch Failure"

(* ------------------------------------------------------------------ *)
(* Budget edge cases: zero allowances, the wall-clock clamp, escalation *)

let test_zero_budgets () =
  (* a zero-step budget fails on the very first unit of work *)
  (match budget_error (fun () -> Budget.step (Budget.create ~max_steps:0 ())) with
  | Some (Error.Budget_exhausted { resource = Error.Steps; spent; limit }) ->
    check_int "zero-step limit echoed" 0 limit;
    check_int "zero-step spent" 1 spent
  | _ -> Alcotest.fail "a zero-step budget should fail on the first step");
  (* likewise a zero-size budget on the first unit of output *)
  (match budget_error (fun () -> Budget.grow (Budget.create ~max_size:0 ())) with
  | Some (Error.Budget_exhausted { resource = Error.Size; spent; limit }) ->
    check_int "zero-size limit echoed" 0 limit;
    check_int "zero-size spent" 1 spent
  | _ -> Alcotest.fail "a zero-size budget should fail on the first grow");
  (* and the whole pipeline survives them as typed errors *)
  match
    budget_error (fun () ->
        Omq.answer
          ~budget:(Budget.create ~max_steps:0 ())
          ~algorithm:Omq.Ucq (cyclic_omq ()) (triangle_abox ()))
  with
  | Some _ -> ()
  | None -> Alcotest.fail "expected the pipeline to trip a zero-step budget"

let test_wall_remaining_clamps () =
  (* an expired deadline reads as zero headroom, never negative *)
  let b = Budget.create ~timeout:0.0 () in
  check "wall_remaining clamped at 0" true (Budget.wall_remaining b = Some 0.);
  check "wall_exhausted on an expired deadline" true (Budget.wall_exhausted b);
  (* no deadline: unlimited headroom, never exhausted *)
  check "no timeout has no remaining" true
    (Budget.wall_remaining Budget.none = None);
  check "no timeout is never exhausted" true
    (not (Budget.wall_exhausted Budget.none));
  (* a generous deadline reports positive, bounded headroom *)
  let b = Budget.create ~timeout:3600.0 () in
  match Budget.wall_remaining b with
  | Some r -> check "headroom positive and bounded" true (r > 0. && r <= 3600.)
  | None -> Alcotest.fail "a timeout budget should report headroom"

let test_sub_scaled () =
  let b = Budget.create ~max_steps:10 ~max_size:4 () in
  for _ = 1 to 7 do
    Budget.step b
  done;
  let child = Budget.sub_scaled ~factor:2.5 b in
  let l = Budget.limits child in
  check "steps scaled up (ceil)" true (l.Budget.max_steps = Some 25);
  check "size scaled up (ceil)" true (l.Budget.max_size = Some 10);
  check_int "child counters restart" 0 (Budget.steps_spent child);
  check_int "parent counters untouched" 7 (Budget.steps_spent b);
  (* an unlimited budget stays unlimited *)
  let l = Budget.limits (Budget.sub_scaled ~factor:8. Budget.none) in
  check "unlimited stays unlimited" true
    (l.Budget.max_steps = None && l.Budget.max_size = None);
  (* de-escalation is a caller bug *)
  check "factor below 1 rejected" true
    (try
       ignore (Budget.sub_scaled ~factor:0.5 b);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Fault injection: plan language, selector semantics, replay *)

let test_fault_plan_language () =
  (match
     Fault.parse_plan
       "chase.step@17=budget, parse.cq@nth:1, eval.ndl.round@every:3=internal, \
        chase.null@random:0.5:7"
   with
  | Error e -> Alcotest.failf "plan should parse: %s" e
  | Ok plan ->
    check_int "four directives" 4 (List.length plan);
    (* round-trips; classes equal to the site default are elided *)
    check_str "round-trip"
      "chase.step@17,parse.cq@1,eval.ndl.round@every:3=internal,chase.null@random:0.5:7"
      (Fault.plan_to_string plan));
  let rejected s =
    match Fault.parse_plan s with Error _ -> true | Ok _ -> false
  in
  check "unknown site rejected" true (rejected "nosuch.site@1");
  check "duplicate site rejected" true (rejected "chase.step@1,chase.step@2");
  check "bad selector rejected" true (rejected "chase.step@zero");
  check "activation 0 rejected" true (rejected "chase.step@0");
  check "unknown class rejected" true (rejected "chase.step@1=kaboom");
  check "empty plan rejected" true (rejected "");
  (* the registry is static and closed over the documented site names *)
  check_int "registry size" 23 (List.length (Fault.sites ()));
  List.iter
    (fun s ->
      check
        (Fault.site_name s ^ " resolves to itself")
        true
        (Fault.find_site (Fault.site_name s) = Some s))
    (Fault.sites ())

let test_fault_selectors () =
  let site = Fault.chase_step in
  (* Nth fires exactly once, on the named activation, as a transient
     (step-resource) budget error *)
  Fault.arm [ Fault.directive site (Fault.Nth 3) ];
  let fires = ref 0 in
  for i = 1 to 5 do
    try Fault.hit site
    with Error.Obda_error (Error.Budget_exhausted { spent; limit; _ }) ->
      incr fires;
      check_int "fires on the 3rd activation" 3 i;
      check_int "spent is the activation" 3 spent;
      check_int "limit is one less" 2 limit
  done;
  check_int "nth fires exactly once" 1 !fires;
  check_int "every activation counted" 5 (Fault.activations site);
  check "fired record" true
    (List.map (fun (s, n) -> (Fault.site_name s, n)) (Fault.fired ())
    = [ ("chase.step", 3) ]);
  Fault.disarm ();
  (* Every fires on each multiple *)
  Fault.arm [ Fault.directive site (Fault.Every 2) ];
  let fires = ref 0 in
  for _ = 1 to 6 do
    try Fault.hit site with Error.Obda_error _ -> incr fires
  done;
  check_int "every-2 fires on activations 2, 4, 6" 3 !fires;
  Fault.disarm ();
  (* a seeded Random plan replays identically ... *)
  let run () =
    Fault.arm [ Fault.directive site (Fault.Random { prob = 0.3; seed = 11 }) ];
    for _ = 1 to 200 do
      try Fault.hit site with Error.Obda_error _ -> ()
    done;
    let f = List.map snd (Fault.fired ()) in
    Fault.disarm ();
    f
  in
  let f1 = run () in
  check "random fired at least once" true (f1 <> []);
  check "seeded random replays identically" true (f1 = run ());
  (* ... and its record replays as a deterministic @N directive *)
  let first = List.hd f1 in
  Fault.arm [ Fault.directive site (Fault.Nth first) ];
  let refired = ref false in
  for _ = 1 to first do
    try Fault.hit site with Error.Obda_error _ -> refired := true
  done;
  Fault.disarm ();
  check "recorded activation replays via @N" true !refired

let test_fault_classes () =
  (* a site's default class decides the raised error... *)
  Fault.arm [ Fault.directive Fault.parse_tbox (Fault.Nth 1) ];
  (match Fault.hit Fault.parse_tbox with
  | () ->
    Fault.disarm ();
    Alcotest.fail "parse.tbox@1 should raise"
  | exception Error.Obda_error (Error.Parse_error _ as e) ->
    Fault.disarm ();
    check_int "parse default exits 2" 2 (Error.exit_code e));
  (* ...unless the directive overrides it *)
  match Fault.parse_plan "chase.step@1=inconsistent" with
  | Error e -> Alcotest.failf "plan should parse: %s" e
  | Ok plan -> (
    Fault.arm plan;
    match Fault.hit Fault.chase_step with
    | () ->
      Fault.disarm ();
      Alcotest.fail "chase.step@1 should raise"
    | exception Error.Obda_error (Error.Inconsistent_data _ as e) ->
      Fault.disarm ();
      check_int "inconsistent override exits 5" 5 (Error.exit_code e))

let test_fault_disabled_is_noop () =
  Fault.disarm ();
  check "disarmed" true (not (Fault.armed ()));
  (* with no plan armed, hits neither raise nor count *)
  for _ = 1 to 1000 do
    Fault.hit Fault.chase_step
  done;
  check_int "no counting when disarmed" 0 (Fault.activations Fault.chase_step);
  check "nothing fired" true (Fault.fired () = [])

(* ------------------------------------------------------------------ *)
(* Retry with escalation *)

let test_retry_escalates_to_success () =
  (* trial 1 trips an injected transient step fault at the first evaluator
     round; the policy retries with an escalated sub-budget and trial 2 runs
     clean (the site counts activations across trials, so @1 fires once) *)
  let omq = cyclic_omq () in
  let abox = triangle_abox () in
  Fault.arm [ Fault.directive Fault.eval_ndl_round (Fault.Nth 1) ];
  let r =
    Fun.protect ~finally:Fault.disarm (fun () ->
        Omq.answer_with_fallback ~retries:3 ~chain:[ Omq.Ucq ] omq abox)
  in
  check "answered by the retried algorithm" true
    (r.Omq.answered_by = Some Omq.Ucq);
  (match r.Omq.attempts with
  | [ a1; a2 ] ->
    check_int "first trial numbered 1" 1 a1.Omq.trial;
    check_int "retry numbered 2" 2 a2.Omq.trial;
    check "both trials on the same algorithm" true
      (a1.Omq.algorithm = Omq.Ucq && a2.Omq.algorithm = Omq.Ucq);
    (match a1.Omq.outcome with
    | Error (Error.Budget_exhausted { resource = Error.Steps; _ }) -> ()
    | _ -> Alcotest.fail "trial 1 should fail on a transient step fault");
    check "trial 2 succeeds" true (a2.Omq.outcome = Ok ())
  | l -> Alcotest.failf "expected exactly 2 attempts, got %d" (List.length l));
  check "answers agree with certain answers" true
    (List.sort compare r.Omq.answers
    = List.sort compare (Omq.answer_certain omq abox))

let test_retry_stops_at_the_wall () =
  (* an already-expired deadline: transient failures must not be retried,
     however many retries are allowed — each algorithm in the chain gets
     exactly one trial and the typed error propagates *)
  let omq = cyclic_omq () in
  let abox = triangle_abox () in
  Fault.arm [ Fault.directive Fault.eval_ndl_round (Fault.Every 1) ];
  let result, c =
    Obs.collecting (fun () ->
        Fun.protect ~finally:Fault.disarm (fun () ->
            match
              Omq.answer_with_fallback
                ~budget:(Budget.create ~timeout:0.0 ())
                ~retries:1_000
                ~chain:[ Omq.Ucq_condensed; Omq.Ucq ] omq abox
            with
            | _ -> `Answered
            | exception Error.Obda_error (Error.Budget_exhausted _) ->
              `Exhausted))
  in
  check "typed exhaustion propagates" true (result = `Exhausted);
  let attempts =
    List.filter
      (fun (s : Obs.span) -> s.Obs.name = "omq.attempt")
      (Obs.Collector.spans c)
  in
  check_int "one trial per algorithm, no retries" 2 (List.length attempts)

let test_retry_bounded_by_deadline () =
  (* with every trial failing transiently, retries stop at the wall: the
     sum of attempt durations never exceeds the request's allowance by more
     than one step-check granule *)
  let omq = cyclic_omq () in
  let abox = triangle_abox () in
  let allowance = 0.15 in
  Fault.arm [ Fault.directive Fault.eval_ndl_round (Fault.Every 1) ];
  let result, c =
    Obs.collecting (fun () ->
        Fun.protect ~finally:Fault.disarm (fun () ->
            match
              Omq.answer_with_fallback
                ~budget:(Budget.create ~timeout:allowance ())
                ~retries:1_000_000
                ~chain:[ Omq.Ucq ] omq abox
            with
            | _ -> `Answered
            | exception Error.Obda_error (Error.Budget_exhausted _) ->
              `Exhausted))
  in
  check "exhausts once the deadline passes" true (result = `Exhausted);
  let attempts =
    List.filter
      (fun (s : Obs.span) -> s.Obs.name = "omq.attempt")
      (Obs.Collector.spans c)
  in
  check "kept retrying until the wall" true (List.length attempts > 2);
  let total =
    List.fold_left (fun acc (s : Obs.span) -> acc +. s.Obs.duration) 0. attempts
  in
  check "attempt durations sum within the allowance" true
    (total <= allowance +. 0.05)

(* ------------------------------------------------------------------ *)
(* Parser diagnostics at buffer boundaries *)

let test_parser_buffer_boundaries () =
  (* CRLF endings: the caret column counts characters of the logical line *)
  (match
     parse_error_of (fun () ->
         ignore (Parse.ontology_of_string "A(x) -> B(x)\r\nB(x) -> %C(x)\r\n"))
   with
  | Some (loc, _, _) ->
    check_int "crlf: line" 2 loc.Error.line;
    check "crlf: column" true (loc.Error.column = Some 9)
  | None -> Alcotest.fail "expected a parse error on the CRLF input");
  (* empty inputs: vacuous ontology and data are fine, a query is not *)
  check_int "empty ontology is vacuous" 0
    (List.length (Tbox.axioms (Parse.ontology_of_string "")));
  check_int "empty data is vacuous" 0
    (Obda_data.Abox.num_atoms (Parse.data_of_string ""));
  (match parse_error_of (fun () -> ignore (Parse.query_of_string "")) with
  | Some _ -> ()
  | None -> Alcotest.fail "an empty query should be a typed parse error");
  (* an error on the final, unterminated line still carets correctly *)
  match
    parse_error_of (fun () ->
        ignore (Parse.ontology_of_string "A(x) -> B(x)\nC(x) -> $"))
  with
  | Some (loc, _, source_line) ->
    check_int "unterminated: line" 2 loc.Error.line;
    check "unterminated: column" true (loc.Error.column = Some 9);
    check "unterminated: source line captured" true
      (source_line = Some "C(x) -> $")
  | None -> Alcotest.fail "expected a parse error on the unterminated line"

(* ------------------------------------------------------------------ *)
(* Generated data is deterministic by default *)

let test_generate_default_seed () =
  let params =
    { Obda_data.Generate.vertices = 40; edge_prob = 0.15; concept_prob = 0.3 }
  in
  let gen ?seed () =
    Parse.data_to_string
      (Obda_data.Generate.erdos_renyi ?seed ~edge_pred:(sym "R")
         ~concepts:[ sym "A" ] params)
  in
  (* the default seed is a fixed constant, not time-derived: two calls give
     the same instance, and it is the seed-42 instance *)
  check "default seed is deterministic" true (gen () = gen ());
  check "default seed is 42" true (gen () = gen ~seed:42 ());
  check "the seed actually matters" true (gen () <> gen ~seed:43 ())

(* ------------------------------------------------------------------ *)
(* The worker pool *)

module Pool = Obda_runtime.Pool

let in_pool ~jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_pool_runs_every_index () =
  in_pool ~jobs:4 (fun pool ->
      let hits = Array.make 4 0 in
      Pool.run pool (fun i -> hits.(i) <- hits.(i) + 1);
      check "every index ran once" true (hits = [| 1; 1; 1; 1 |]);
      (* the pool is reusable across runs *)
      Pool.run pool (fun i -> hits.(i) <- hits.(i) + 10);
      check "reused pool ran every index again" true (hits = [| 11; 11; 11; 11 |]))

let test_pool_single_job_is_inline () =
  in_pool ~jobs:1 (fun pool ->
      let d = Domain.self () in
      let same = ref false in
      Pool.run pool (fun i -> same := i = 0 && Domain.self () = d);
      check "jobs=1 runs on the calling domain" true !same);
  check "jobs < 1 rejected" true
    (match Pool.create ~jobs:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

exception Boom of int

let test_pool_propagates_failure () =
  in_pool ~jobs:3 (fun pool ->
      let ran = Array.make 3 false in
      (match
         Pool.run pool (fun i ->
             ran.(i) <- true;
             if i = 1 then raise (Boom i))
       with
      | () -> Alcotest.fail "worker exception was swallowed"
      | exception Boom 1 -> ()
      | exception e -> raise e);
      check "other workers still ran" true (ran = [| true; true; true |]);
      (* the failed run must not poison the pool *)
      let ok = ref 0 in
      Pool.run pool (fun _ -> incr ok);
      check_int "pool survives a failing run" 3 !ok);
  (* shutdown is idempotent and run-after-shutdown is rejected *)
  let pool = Pool.create ~jobs:2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  check "run after shutdown rejected" true
    (match Pool.run pool (fun _ -> ()) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* [Budget.charge] counts steps and size in bulk, binds both caps, and
   reads the wall clock exactly when the step count reaches 1 or passes a
   multiple of 1024, as the same number of single steps would. *)
let test_budget_charge () =
  let expired () =
    let b = Budget.create ~timeout:0. () in
    Unix.sleepf 0.002;
    b
  in
  let outcome f =
    match budget_error f with
    | Some (Error.Budget_exhausted { resource; spent; limit }) ->
      Some (resource, spent, limit)
    | Some _ | None -> None
  in
  let wall f =
    match outcome f with Some (Error.Wall_clock, _, _) -> true | _ -> false
  in
  let b = expired () in
  check "the first step reads the clock" true (wall (fun () -> Budget.charge b 1));
  check "short of 1024 steps, no clock read" false
    (wall (fun () -> Budget.charge b 1022));
  check_int "steps counted" 1023 (Budget.steps_spent b);
  check_int "size counted" 1023 (Budget.size_spent b);
  check "reaching 1024 reads the clock" true (wall (fun () -> Budget.charge b 1));
  let b = expired () in
  check "a first charge reads the clock" true
    (wall (fun () -> Budget.charge b 1000));
  check "a charge across 1024 reads the clock" true
    (wall (fun () -> Budget.charge b 100));
  check "then none until 2048" false (wall (fun () -> Budget.charge b 947));
  check "2048 reads it again" true (wall (fun () -> Budget.charge b 1));
  check "one charge across several multiples reads it" true
    (wall (fun () -> Budget.charge (expired ()) 5000));
  check "a zero charge reads nothing" false
    (wall (fun () -> Budget.charge (expired ()) 0));
  let b = Budget.create ~max_steps:10 () in
  Budget.step b;
  Budget.charge b 9;
  check "the step cap: the charge that passes it" true
    (outcome (fun () -> Budget.charge b 4) = Some (Error.Steps, 14, 10));
  let b = Budget.create ~max_size:5 () in
  Budget.grow b;
  Budget.charge b 4;
  check "the size cap: the charge that passes it" true
    (outcome (fun () -> Budget.charge b 2) = Some (Error.Size, 7, 5));
  check "unlimited budgets never raise" true
    (outcome (fun () -> Budget.charge (Budget.create ()) 1_000_000) = None)

let suites =
  [
    ( "runtime",
      [
        Alcotest.test_case "malformed corpus" `Quick test_malformed_corpus;
        Alcotest.test_case "parse error payload" `Quick
          test_parse_error_payload;
        Alcotest.test_case "duplicate answer vars" `Quick
          test_duplicate_answer_vars_are_parse_errors;
        Alcotest.test_case "chase step budget" `Quick test_chase_step_budget;
        Alcotest.test_case "chase size budget" `Quick test_chase_size_budget;
        Alcotest.test_case "wall-clock budget" `Quick test_deadline_budget;
        Alcotest.test_case "rewriter budget" `Quick test_rewriter_budget;
        Alcotest.test_case "evaluation budget" `Quick test_eval_budget;
        Alcotest.test_case "explain under the budget" `Quick
          test_answer_explain;
        Alcotest.test_case "bulk budget charge" `Quick test_budget_charge;
        Alcotest.test_case "sub-budget semantics" `Quick
          test_sub_budget_shares_deadline;
        Alcotest.test_case "fallback recovers" `Quick test_fallback_recovers;
        Alcotest.test_case "default chain" `Quick
          test_default_chain_covers_every_omq;
        Alcotest.test_case "fallback budget attempts" `Quick
          test_fallback_reports_budget_failures;
        Alcotest.test_case "empty chain" `Quick test_empty_chain_rejected;
        Alcotest.test_case "inconsistent error mode" `Quick
          test_inconsistent_error_mode;
        Alcotest.test_case "error rendering" `Quick test_error_rendering;
        Alcotest.test_case "zero budgets" `Quick test_zero_budgets;
        Alcotest.test_case "wall-clock clamp" `Quick test_wall_remaining_clamps;
        Alcotest.test_case "scaled sub-budgets" `Quick test_sub_scaled;
        Alcotest.test_case "fault plan language" `Quick
          test_fault_plan_language;
        Alcotest.test_case "fault selectors" `Quick test_fault_selectors;
        Alcotest.test_case "fault classes" `Quick test_fault_classes;
        Alcotest.test_case "fault disabled path" `Quick
          test_fault_disabled_is_noop;
        Alcotest.test_case "retry escalates" `Quick
          test_retry_escalates_to_success;
        Alcotest.test_case "retry wall gate" `Quick test_retry_stops_at_the_wall;
        Alcotest.test_case "retry deadline bound" `Quick
          test_retry_bounded_by_deadline;
        Alcotest.test_case "parser buffer boundaries" `Quick
          test_parser_buffer_boundaries;
        Alcotest.test_case "generator default seed" `Quick
          test_generate_default_seed;
        Alcotest.test_case "pool runs every index" `Quick
          test_pool_runs_every_index;
        Alcotest.test_case "pool single job inline" `Quick
          test_pool_single_job_is_inline;
        Alcotest.test_case "pool failure propagation" `Quick
          test_pool_propagates_failure;
      ] );
  ]
