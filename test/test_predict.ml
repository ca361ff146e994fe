(* The prediction subsystem: the constraint scheduler's feasible and
   infeasible paths (lock window, program-order contradiction, unreached
   waypoints, step budget — never a livelock), the witness planner's
   schedule round-trip, and end-to-end certification on latent shapes
   that plain round-robin provably never flames. *)

open Velodrome_sim
module Statics = Velodrome_statics.Statics
module Plan = Velodrome_predict.Plan
module Predict = Velodrome_predict.Predict
module Rng = Velodrome_util.Rng
module Trace = Velodrome_trace.Trace
module Names = Velodrome_trace.Names

let check = Alcotest.check

let wp t p = { Constrain.wthread = t; wpath = p }

(* Deferred publish: writer updates b then a; reader snapshots both in
   one atomic. Round-robin runs the writer (thread 0) first each round,
   so the reader's first read always lands after the first write — clean
   — yet forcing read b ≺ write b ≺ write a ≺ read a violates. *)
let scan_program () =
  let b = Builder.create () in
  let va = Builder.var b "a" in
  let vb = Builder.var b "b" in
  Builder.thread b
    [ Builder.write vb (Builder.i 1); Builder.write va (Builder.i 1) ];
  Builder.thread b
    (let r1 = Builder.fresh_reg b in
     let r2 = Builder.fresh_reg b in
     [
       Builder.atomic (Builder.label b "scan")
         [ Builder.read r1 vb; Builder.read r2 va ];
     ]);
  Builder.program b

let find_block st name =
  match
    List.find_opt (fun b -> b.Statics.name = name) (Statics.blocks st)
  with
  | Some b -> b
  | None -> Alcotest.failf "block %s not analyzed" name

(* --- constraint scheduler ------------------------------------------------- *)

let test_replay_empty_plan () =
  let p = scan_program () in
  match Constrain.replay p [] with
  | Constrain.Scheduled { trace; forced } ->
    check Alcotest.int "no forced events" 0 forced;
    check Alcotest.bool "well-formed" true (Trace.is_well_formed trace);
    (* 2 writes + Begin/2 reads/End *)
    check Alcotest.int "events" 6 (Trace.length trace)
  | Constrain.Infeasible _ -> Alcotest.fail "empty plan must schedule"

let test_replay_forces_scan () =
  let p = scan_program () in
  (* read b (t1, inside atomic at [0], body stmt 0 -> [0;0]), then both
     writes of t0, then read a. *)
  let plan = [ wp 1 [ 0; 0 ]; wp 0 [ 0 ]; wp 0 [ 1 ]; wp 1 [ 0; 1 ] ] in
  match Constrain.replay p plan with
  | Constrain.Scheduled { trace; forced } ->
    check Alcotest.bool "well-formed" true (Trace.is_well_formed trace);
    check Alcotest.bool "forced all waypoints" true (forced >= 4);
    let label =
      match
        List.find_opt (fun b -> b.Statics.name = "scan")
          (Statics.blocks (Statics.analyze p))
      with
      | Some b -> b.Statics.label
      | None -> Alcotest.fail "scan block missing"
    in
    (match Predict.certify p.Ast.names label trace with
    | Some _ -> ()
    | None -> Alcotest.fail "forced scan trace must certify")
  | Constrain.Infeasible { at; reason } ->
    Alcotest.failf "infeasible at %d: %s" at
      (Constrain.reason_to_string reason)

let test_infeasible_lock_window () =
  let b = Builder.create () in
  let va = Builder.var b "a" in
  let vb = Builder.var b "b" in
  let m = Builder.lock b "m" in
  Builder.thread b
    (let r1 = Builder.fresh_reg b in
     let r2 = Builder.fresh_reg b in
     Builder.sync m [ Builder.read r1 vb; Builder.read r2 va ]);
  Builder.thread b
    (Builder.sync m
       [ Builder.write vb (Builder.i 1); Builder.write va (Builder.i 1) ]);
  let p = Builder.program b in
  (* Interleave t1's write between t0's two reads — but t0 holds m across
     the window, so t1 blocks on a lock owned by a frozen thread. *)
  let plan = [ wp 0 [ 1 ]; wp 1 [ 1 ]; wp 0 [ 2 ] ] in
  match Constrain.replay p plan with
  | Constrain.Infeasible { at; reason = Constrain.Lock_window _ } ->
    check Alcotest.int "fails at the cross-thread waypoint" 1 at
  | Constrain.Infeasible { reason; _ } ->
    Alcotest.failf "wrong reason: %s" (Constrain.reason_to_string reason)
  | Constrain.Scheduled _ -> Alcotest.fail "lock window must be infeasible"

let test_infeasible_order_contradiction () =
  let b = Builder.create () in
  let vx = Builder.var b "x" in
  let vy = Builder.var b "y" in
  Builder.thread b
    [ Builder.write vx (Builder.i 1); Builder.write vy (Builder.i 1) ];
  let p = Builder.program b in
  match Constrain.replay p [ wp 0 [ 1 ]; wp 0 [ 0 ] ] with
  | Constrain.Infeasible { at = 0; reason = Constrain.Order_contradiction w }
    ->
    check Alcotest.(list int) "contradicting waypoint" [ 0 ] w.Constrain.wpath
  | Constrain.Infeasible { at; reason } ->
    Alcotest.failf "wrong failure %d: %s" at
      (Constrain.reason_to_string reason)
  | Constrain.Scheduled _ ->
    Alcotest.fail "program-order contradiction must be infeasible"

let test_infeasible_unreached () =
  let b = Builder.create () in
  let vx = Builder.var b "x" in
  Builder.thread b [ Builder.write vx (Builder.i 1) ];
  let p = Builder.program b in
  match Constrain.replay p [ wp 0 [ 7 ] ] with
  | Constrain.Infeasible { at = 0; reason = Constrain.Unreached _ } -> ()
  | _ -> Alcotest.fail "nonexistent waypoint must be Unreached"

let test_infeasible_step_budget () =
  let b = Builder.create () in
  let flag = Builder.var b "flag" in
  let vx = Builder.var b "x" in
  Builder.thread b
    (let rg = Builder.fresh_reg b in
     [
       Builder.local rg (Builder.i 0);
       Builder.while_ Builder.(r rg ==: i 0) [ Builder.read rg flag ];
       Builder.write vx (Builder.i 1);
     ]);
  Builder.thread b [ Builder.write flag (Builder.i 1) ];
  let p = Builder.program b in
  (* t1 (the flag publisher) owes a later waypoint, so it freezes while
     t0 spins toward an unreachable waypoint: the budget must fire. *)
  match Constrain.replay ~max_steps:2_000 p [ wp 0 [ 2 ]; wp 1 [ 0 ] ] with
  | Constrain.Infeasible { at = 0; reason = Constrain.Step_budget } -> ()
  | Constrain.Infeasible { at; reason } ->
    Alcotest.failf "wrong failure %d: %s" at
      (Constrain.reason_to_string reason)
  | Constrain.Scheduled _ -> Alcotest.fail "spin must exhaust the budget"

(* Bounded-step property: any plan over any generated program terminates
   in Scheduled-with-well-formed-trace or Infeasible — never a livelock
   (the replay loop is step-bounded by construction, so this completing
   at all is the property). *)
let test_replay_total =
  QCheck.Test.make ~count:220 ~name:"constrained replay is total"
    QCheck.(pair small_nat (int_bound 6))
    (fun (seed, plan_len) ->
      let rng = Rng.create (seed + 1) in
      let program =
        Progen.generate
          ~config:
            { Progen.default with max_threads = 3; vars = 4; top_items = 2 }
          rng
      in
      let observed = Constrain.observe program in
      let n = Array.length observed in
      let plan =
        List.init plan_len (fun _ ->
            if n > 0 && Rng.int rng 4 > 0 then begin
              let op, path = observed.(Rng.int rng n) in
              {
                Constrain.wthread =
                  Velodrome_trace.Ids.Tid.to_int (Velodrome_trace.Op.tid op);
                wpath = path;
              }
            end
            else
              wp (Rng.int rng 4)
                (List.init (1 + Rng.int rng 2) (fun _ -> Rng.int rng 5)))
      in
      match Constrain.replay ~max_steps:20_000 program plan with
      | Constrain.Scheduled { trace; _ } -> Trace.is_well_formed trace
      | Constrain.Infeasible _ -> true)

(* --- planner -------------------------------------------------------------- *)

let test_schedule_round_trip () =
  let plan =
    {
      Plan.kind = Plan.Full;
      waypoints = [ wp 0 [ 1; 0 ]; wp 2 []; wp 1 [ 3 ] ];
    }
  in
  let s = Plan.to_string plan in
  check Alcotest.string "rendering" "t0@1.0 -> t2@ -> t1@3" s;
  match Plan.parse_schedule s with
  | Ok ws ->
    check Alcotest.bool "round trip" true (ws = plan.Plan.waypoints)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_parse_schedule_rejects_garbage () =
  (match Plan.parse_schedule "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must reject a waypoint without @");
  match Plan.parse_schedule "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must reject an empty schedule"

(* --- end-to-end prediction ------------------------------------------------ *)

let test_predict_scan_end_to_end () =
  let p = scan_program () in
  let st = Statics.analyze p in
  let block = find_block st "scan" in
  (match block.Statics.verdict with
  | Statics.May_violate _ -> ()
  | _ -> Alcotest.fail "scan must be statically may-violate");
  let t = Predict.run p st in
  check Alcotest.int "round-robin observation is clean" 0
    (List.length (Predict.observed_blamed t));
  match Predict.predictions t with
  | [ pred ] ->
    check Alcotest.string "predicted block" "scan" pred.Predict.name;
    check Alcotest.bool "sites resolved against the observation" true
      pred.Predict.resolved;
    (* The emitted schedule replays to the same certification. *)
    (match
       Predict.replay_and_certify p pred.Predict.label
         pred.Predict.plan.Plan.waypoints
     with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "replay line does not certify: %s" e);
    (* The upgraded lattice reports it. *)
    let verdicts = Predict.verdicts t in
    let v = List.assoc block verdicts in
    check Alcotest.string "upgraded verdict" "predicted-violation"
      (Predict.verdict_string v)
  | preds ->
    Alcotest.failf "expected exactly one prediction, got %d"
      (List.length preds)

let test_predict_write_skew () =
  (* Both skew blocks are latent under round-robin (the yield stagger
     serializes them) and both must be predicted: skew1 needs the
     minimal-plan fallback because its witness path runs against t2's
     program order. *)
  let b = Builder.create () in
  let u = Builder.var b "u" in
  let v = Builder.var b "v" in
  Builder.thread b
    (let r1 = Builder.fresh_reg b in
     let r2 = Builder.fresh_reg b in
     [
       Builder.atomic (Builder.label b "skew1")
         [
           Builder.read r1 u;
           Builder.read r2 v;
           Builder.write u Builder.(r r2 +: i 1);
         ];
     ]);
  Builder.thread b
    (let r1 = Builder.fresh_reg b in
     let r2 = Builder.fresh_reg b in
     List.init 5 (fun _ -> Builder.yield)
     @ [
         Builder.atomic (Builder.label b "skew2")
           [
             Builder.read r1 u;
             Builder.read r2 v;
             Builder.write v Builder.(r r1 +: i 1);
           ];
       ]);
  let p = Builder.program b in
  let st = Statics.analyze p in
  let t = Predict.run p st in
  check Alcotest.int "round-robin observation is clean" 0
    (List.length (Predict.observed_blamed t));
  let names = List.sort compare
      (List.map (fun pr -> pr.Predict.name) (Predict.predictions t))
  in
  check Alcotest.(list string) "both skew blocks predicted"
    [ "skew1"; "skew2" ] names

let test_predict_latent_progen () =
  (* A generated program carrying the latent family: prediction must
     certify the scan block even though round-robin never flames it. *)
  let rec find_latent seed =
    if seed > 64 then Alcotest.fail "no latent program in 64 seeds"
    else
      let program, info = Progen.generate_info (Rng.create seed) in
      if List.mem "latent" info.Progen.families then (seed, program)
      else find_latent (seed + 1)
  in
  let _seed, program = find_latent 1 in
  let st = Statics.analyze program in
  let t = Predict.run program st in
  let predicted = List.map (fun p -> p.Predict.name) (Predict.predictions t) in
  check Alcotest.bool "gen.lat.scan predicted" true
    (List.mem "gen.lat.scan" predicted);
  let blamed_names =
    List.map
      (Names.label_name (Statics.names st))
      (Predict.observed_blamed t)
  in
  check Alcotest.bool "scan not blamed by the observation" false
    (List.mem "gen.lat.scan" blamed_names)

(* The predictive-atomicity study at smoke size: the 18 workloads at
   Small plus 30 generated programs. Every emitted prediction must
   re-certify when replayed from its schedule, and one round-robin
   observation plus its predictions must find strictly more unique
   violating blocks than the adversarial-scheduler baseline (Atomizer-
   guided pausing, one run per seed in [1; 2]). *)
module SSet = Set.Make (String)

let adversarial_blamed program seeds =
  let names = program.Ast.names in
  List.fold_left
    (fun acc seed ->
      let res =
        Velodrome_harness.Common.run_once ~seed ~adversarial:true program
          (fun n ->
            [
              Velodrome_analysis.Backend.make
                (Velodrome_atomizer.Atomizer.backend ())
                n;
              Velodrome_analysis.Backend.make
                (Velodrome_core.Engine.backend ())
                n;
            ])
      in
      List.fold_left
        (fun acc (w : Velodrome_analysis.Warning.t) ->
          if w.analysis = "velodrome" && w.blamed then
            match Velodrome_harness.Common.label_of_warning names w with
            | Some l -> SSet.add l acc
            | None -> acc
          else acc)
        acc res.Run.warnings)
    SSet.empty seeds

let test_predict_study () =
  let module Workload = Velodrome_workloads.Workload in
  let programs =
    List.map (fun w -> w.Workload.build Workload.Small) Workload.all
    @ List.init 30 (fun k -> Progen.generate (Rng.create (k + 1)))
  in
  let uncertified, adversarial, rr_plus_predicted =
    List.fold_left
      (fun (unc, adv, rr) program ->
        let t = Predict.run program (Statics.analyze program) in
        let preds = Predict.predictions t in
        let unc =
          unc
          + List.length
              (List.filter
                 (fun (pr : Predict.prediction) ->
                   Result.is_error
                     (Predict.replay_and_certify program pr.label
                        pr.plan.Plan.waypoints))
                 preds)
        in
        let observed =
          SSet.of_list
            (List.map
               (Names.label_name program.Ast.names)
               (Predict.observed_blamed t))
        in
        let predicted =
          SSet.of_list (List.map (fun (pr : Predict.prediction) -> pr.name) preds)
        in
        ( unc,
          adv + SSet.cardinal (adversarial_blamed program [ 1; 2 ]),
          rr + SSet.cardinal (SSet.union observed predicted) ))
      (0, 0, 0) programs
  in
  check Alcotest.int "no uncertified prediction" 0 uncertified;
  if rr_plus_predicted <= adversarial then
    Alcotest.failf
      "no strict dominance: round-robin + predicted %d unique blocks <= \
       adversarial %d"
      rr_plus_predicted adversarial

let suite =
  ( "predict",
    [
      Alcotest.test_case "replay: empty plan" `Quick test_replay_empty_plan;
      Alcotest.test_case "replay: forces the scan interleaving" `Quick
        test_replay_forces_scan;
      Alcotest.test_case "replay: lock window is infeasible" `Quick
        test_infeasible_lock_window;
      Alcotest.test_case "replay: order contradiction is infeasible" `Quick
        test_infeasible_order_contradiction;
      Alcotest.test_case "replay: unreached waypoint" `Quick
        test_infeasible_unreached;
      Alcotest.test_case "replay: spin exhausts the step budget" `Quick
        test_infeasible_step_budget;
      QCheck_alcotest.to_alcotest ~long:false test_replay_total;
      Alcotest.test_case "plan: schedule round trip" `Quick
        test_schedule_round_trip;
      Alcotest.test_case "plan: parse rejects garbage" `Quick
        test_parse_schedule_rejects_garbage;
      Alcotest.test_case "predict: scan end to end" `Quick
        test_predict_scan_end_to_end;
      Alcotest.test_case "predict: write skew needs minimal fallback" `Quick
        test_predict_write_skew;
      Alcotest.test_case "predict: latent progen family" `Quick
        test_predict_latent_progen;
      Alcotest.test_case "predict: study beats the adversarial baseline"
        `Quick test_predict_study;
    ] )
