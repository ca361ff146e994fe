(* Tests for the baseline analyses: Eraser, the happens-before detector
   (with its vector clocks), the Atomizer and the two-phase-locking
   checker — plus the AeroDrome vector-clock engine and the three-way
   differential harness holding it to Engine and Basic on every
   workload and on generated programs under every schedule family. *)

open Velodrome_trace
open Velodrome_analysis
open Helpers

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- Eraser ----------------------------------------------------------------- *)

let eraser = Velodrome_eraser.Eraser.backend ()

let test_eraser_detects_race () =
  let ws = feed eraser [ wr t0 x; wr t1 x ] in
  check int "one race" 1 (List.length ws);
  match ws with
  | [ w ] ->
    check bool "race kind" true (w.Warning.kind = Warning.Race);
    check bool "names x" true (w.Warning.var = Some x)
  | _ -> assert false

let test_eraser_locked_clean () =
  let ws =
    feed eraser
      [
        acq t0 m; wr t0 x; rel t0 m;
        acq t1 m; rd t1 x; wr t1 x; rel t1 m;
      ]
  in
  check int "no warnings" 0 (List.length ws)

let test_eraser_read_shared_clean () =
  (* Write by one thread then reads everywhere: Shared but never
     Shared-Modified, so no warning. *)
  let ws = feed eraser [ wr t0 x; rd t1 x; rd t2 x; rd t1 x ] in
  check int "read-only sharing ok" 0 (List.length ws)

let test_eraser_exclusive_then_shared_modified () =
  (* The classic initialization pattern Eraser tolerates: one thread
     initializes without locks, then all threads use a lock. *)
  let ws =
    feed eraser
      [ wr t0 x; wr t0 x; acq t1 m; wr t1 x; rel t1 m; acq t0 m; wr t0 x; rel t0 m ]
  in
  check int "lockset survives" 0 (List.length ws)

let test_eraser_lockset_intersection () =
  (* Accesses under different locks: the candidate lockset intersects to
     empty on the third access. *)
  let ws =
    feed eraser
      [
        acq t0 m; wr t0 x; rel t0 m;
        acq t1 n; wr t1 x; rel t1 n;
        acq t0 m; wr t0 x; rel t0 m;
      ]
  in
  check int "different locks race" 1 (List.length ws)

let test_eraser_volatile_exempt () =
  let names = Names.create () in
  let v = Names.var names "flag" in
  Names.set_volatile names v;
  let ws = feed eraser ~names [ Op.Write (t0, v); Op.Write (t1, v) ] in
  check int "volatiles exempt" 0 (List.length ws)

let test_eraser_dedup_per_var () =
  let ws = feed eraser [ wr t0 x; wr t1 x; wr t0 x; wr t1 x ] in
  check int "one warning per variable" 1 (List.length ws)

(* --- Vector clocks ------------------------------------------------------------ *)

let test_vclock_basics () =
  let open Velodrome_util.Vclock in
  let a = create () and b = create () in
  set a 0 3;
  set b 1 2;
  check bool "incomparable" false (leq a b || leq b a);
  join a b;
  check bool "join dominates" true (leq b a);
  check int "kept own" 3 (get a 0);
  check int "absent reads zero" 0 (get a 7);
  incr a 7;
  check int "incr" 1 (get a 7);
  let c = copy a in
  incr a 7;
  check int "copy is independent" 1 (get c 7)

(* --- Happens-before race detector ----------------------------------------------- *)

let hb = Velodrome_hbrace.Hbrace.backend ()

let test_hb_detects_unordered () =
  let ws = feed hb [ wr t0 x; wr t1 x ] in
  check int "race" 1 (List.length ws)

let test_hb_lock_orders () =
  let ws =
    feed hb
      [ acq t0 m; wr t0 x; rel t0 m; acq t1 m; wr t1 x; rel t1 m ]
  in
  check int "release/acquire edge orders accesses" 0 (List.length ws)

let test_hb_transitive () =
  (* t0 -> t1 through m, t1 -> t2 through n: t2's access is ordered
     after t0's even though they share no lock. *)
  let ws =
    feed hb
      [
        wr t0 x; acq t0 m; rel t0 m;
        acq t1 m; rel t1 m; acq t1 n; rel t1 n;
        acq t2 n; rel t2 n; wr t2 x;
      ]
  in
  check int "transitive ordering" 0 (List.length ws)

let test_hb_read_write_race () =
  let ws = feed hb [ rd t0 x; wr t1 x ] in
  check int "read-write race" 1 (List.length ws)

let test_hb_not_fooled_by_unrelated_lock () =
  let ws =
    feed hb [ acq t0 m; wr t0 x; rel t0 m; acq t1 n; wr t1 x; rel t1 n ]
  in
  check int "different locks do not order" 1 (List.length ws)

let test_hb_program_order_clean () =
  let ws = feed hb [ wr t0 x; rd t0 x; wr t0 x ] in
  check int "single thread clean" 0 (List.length ws)

(* --- Epochs and FastTrack -------------------------------------------------------- *)

let test_epoch_pack () =
  let open Velodrome_hbrace.Epoch in
  let e = make ~tid:5 ~clock:1234 in
  check int "tid" 5 (tid e);
  check int "clock" 1234 (clock e);
  check bool "none is none" true (is_none none);
  check bool "made is not none" false (is_none e);
  let c = Velodrome_util.Vclock.create () in
  check bool "none leq everything" true (leq_vc none c);
  check bool "not leq empty clock" false (leq_vc e c);
  Velodrome_util.Vclock.set c 5 1234;
  check bool "leq at exactly its clock" true (leq_vc e c)

let fasttrack = Velodrome_hbrace.Fasttrack.backend ()

let test_fasttrack_detects_race () =
  let ws = feed fasttrack [ wr t0 x; wr t1 x ] in
  check int "race" 1 (List.length ws)

let test_fasttrack_lock_clean () =
  let ws =
    feed fasttrack
      [ acq t0 m; wr t0 x; rel t0 m; acq t1 m; rd t1 x; wr t1 x; rel t1 m ]
  in
  check int "clean" 0 (List.length ws)

let test_fasttrack_read_share_then_write () =
  (* Concurrent reads force the read-vector inflation; a later write must
     still see both. *)
  let ws =
    feed fasttrack
      [ acq t0 m; wr t0 x; rel t0 m; acq t1 m; rel t1 m;
        rd t0 x; rd t1 x;  (* concurrent reads: inflate *)
        wr t2 x  (* races with both *) ]
  in
  check int "read-write race caught after inflation" 1 (List.length ws)

(* The headline differential property: FastTrack and the full-vector
   detector flag exactly the same set of racy variables on every trace. *)
let racy_vars b tr =
  List.sort_uniq compare
    (List.filter_map
       (fun w -> Option.map Ids.Var.to_int w.Warning.var)
       (feed b (Velodrome_trace.Trace.to_list tr)))

let prop_fasttrack_equals_full_vc =
  QCheck.Test.make ~count:400
    ~name:"fasttrack = full vector clocks (racy variable sets)"
    (trace_arbitrary
       {
         Velodrome_trace.Gen.default with
         threads = 4;
         vars = 3;
         locks = 2;
         steps = 50;
       })
    (fun tr -> racy_vars hb tr = racy_vars fasttrack tr)

(* --- Atomizer ----------------------------------------------------------------- *)

let atomizer = Velodrome_atomizer.Atomizer.backend ()

let test_atomizer_reducible_clean () =
  (* acquire; accesses; release = right-mover, both-movers, left-mover. *)
  let ws =
    feed atomizer
      [
        bg t0 l0; acq t0 m; rd t0 x; wr t0 x; rel t0 m; en t0;
        bg t1 l0; acq t1 m; rd t1 x; wr t1 x; rel t1 m; en t1;
      ]
  in
  check int "reducible" 0 (List.length ws)

let test_atomizer_two_locks_nested_clean () =
  let ws =
    feed atomizer
      [ bg t0 l0; acq t0 m; acq t0 n; wr t0 x; rel t0 n; rel t0 m; en t0 ]
  in
  check int "nested locks reducible" 0 (List.length ws)

let test_atomizer_acquire_after_release () =
  (* Two back-to-back synchronized blocks in one atomic method: the
     acquire after the first release breaks the pattern. *)
  let ops =
    [
      (* Make x and y shared first so the lockset machinery is active. *)
      acq t1 m; rd t1 x; rd t1 y; rel t1 m;
      bg t0 l0; acq t0 m; rd t0 x; rel t0 m; acq t0 m; wr t0 y; rel t0 m;
      en t0;
    ]
  in
  let ws = feed atomizer ops in
  check int "flagged" 1 (List.length ws)

let test_atomizer_racy_rmw_flagged () =
  let ops =
    [
      wr t1 x;  (* x becomes shared with an empty lockset *)
      rd t0 x;
      bg t0 l0; rd t0 x; wr t0 x; en t0;
    ]
  in
  let ws = feed atomizer ops in
  check int "two non-movers flagged" 1 (List.length ws);
  match ws with
  | [ w ] -> check bool "attributed to block" true (w.Warning.label = Some l0)
  | _ -> assert false

let test_atomizer_single_racy_access_ok () =
  let ops = [ wr t1 x; rd t0 x; bg t0 l0; wr t0 x; en t0 ] in
  let ws = feed atomizer ops in
  check int "one commit point is fine" 0 (List.length ws)

let test_atomizer_volatile_false_alarm () =
  (* The Section 2 pattern: two volatile reads inside an atomic block are
     non-movers even though the trace is serializable. *)
  let names = Names.create () in
  let v = Names.var names "baton" in
  let ops = [ bg t0 l0; Op.Read (t0, v); Op.Read (t0, v); en t0 ] in
  Names.set_volatile names v;
  let ws = feed atomizer ~names ops in
  check int "false alarm produced" 1 (List.length ws)

let test_atomizer_outside_blocks_ignored () =
  let ws = feed atomizer [ wr t0 x; wr t1 x; rd t0 x; wr t0 x ] in
  check int "no atomic block, no warning" 0 (List.length ws)

let test_atomizer_pause_hint () =
  let names = Names.create () in
  let state = Velodrome_atomizer.Atomizer.create names in
  let idx = ref 0 in
  let step op =
    Velodrome_atomizer.Atomizer.on_event state
      (Event.make ~index:!idx op);
    incr idx
  in
  (* Make x racy, then enter a block and commit via a racy read. *)
  List.iter step [ wr t1 x; rd t0 x; bg t0 l0 ];
  let hint op =
    Velodrome_atomizer.Atomizer.pause_hint state (Event.make ~index:!idx op)
  in
  check bool "no hint before commit point" false (hint (wr t0 x));
  step (rd t0 x);
  check bool "hint at second non-mover" true (hint (wr t0 x));
  check bool "no hint for other thread" false (hint (wr t1 x));
  step (en t0);
  check bool "no hint outside block" false (hint (wr t0 x))

(* --- Two-phase locking ----------------------------------------------------------- *)

let twopl = Velodrome_twopl.Twopl.backend ()

let twopl_strict =
  Velodrome_twopl.Twopl.backend
    ~config:{ Velodrome_twopl.Twopl.strict = true } ()

let test_twopl_clean () =
  let ws =
    feed twopl
      [ bg t0 l0; acq t0 m; acq t0 n; rd t0 x; rel t0 n; rel t0 m; en t0 ]
  in
  check int "two-phase pattern ok" 0 (List.length ws)

let test_twopl_violation () =
  let ws =
    feed twopl
      [ bg t0 l0; acq t0 m; rel t0 m; acq t0 n; rel t0 n; en t0 ]
  in
  check int "acquire in shrinking phase" 1 (List.length ws);
  match ws with
  | [ w ] -> check bool "labelled" true (w.Warning.label = Some l0)
  | _ -> assert false

let test_twopl_resets_between_blocks () =
  (* The shrinking phase ends with the block: two separate well-formed
     blocks are each fine. *)
  let ws =
    feed twopl
      [
        bg t0 l0; acq t0 m; rel t0 m; en t0;
        bg t0 l1; acq t0 n; rel t0 n; en t0;
      ]
  in
  check int "per-block phases" 0 (List.length ws)

let test_twopl_outside_blocks_free () =
  let ws = feed twopl [ acq t0 m; rel t0 m; acq t0 n; rel t0 n ] in
  check int "no blocks, no discipline" 0 (List.length ws)

let test_twopl_strict_unprotected_access () =
  let ws = feed twopl_strict [ bg t0 l0; rd t0 x; en t0 ] in
  check int "unprotected access flagged" 1 (List.length ws)

let test_twopl_strict_volatile_exempt () =
  let names = Names.create () in
  let v = Names.var names "flag" in
  Names.set_volatile names v;
  let ws = feed twopl_strict ~names [ bg t0 l0; Op.Read (t0, v); en t0 ] in
  check int "volatile exempt" 0 (List.length ws)

let test_twopl_false_alarm_on_serializable () =
  (* 2PL is sufficient, not necessary: two back-to-back locked reads are
     serializable here (no interleaved writer) yet flagged. *)
  let tr =
    [ bg t0 l0; acq t0 m; rd t0 x; rel t0 m; acq t0 m; rd t0 x; rel t0 m; en t0 ]
  in
  check bool "trace is serializable" true
    (Velodrome_oracle.Oracle.serializable (Velodrome_trace.Trace.of_ops tr));
  let ws = feed twopl tr in
  check int "2pl still warns (false alarm)" 1 (List.length ws)

(* --- Vector-clock lattice laws ------------------------------------------------ *)

module Vc = Velodrome_util.Vclock

(* Random clocks with entries well past the default capacity, so growth
   is exercised by every law. *)
let vclock_arbitrary =
  let build entries =
    let c = Vc.create () in
    List.iter (fun (i, v) -> Vc.set c i v) entries;
    c
  in
  QCheck.make
    ~print:(fun c -> Format.asprintf "%a" Vc.pp c)
    QCheck.Gen.(
      map build (small_list (pair (int_bound 40) (int_bound 8))))

let joined a b =
  let c = Vc.copy a in
  Vc.join c b;
  c

let prop_vclock_join_commutes =
  QCheck.Test.make ~count:500 ~name:"vclock: join commutes"
    QCheck.(pair vclock_arbitrary vclock_arbitrary)
    (fun (a, b) -> Vc.equal (joined a b) (joined b a))

let prop_vclock_join_assoc =
  QCheck.Test.make ~count:500 ~name:"vclock: join associates"
    QCheck.(triple vclock_arbitrary vclock_arbitrary vclock_arbitrary)
    (fun (a, b, c) ->
      Vc.equal (joined (joined a b) c) (joined a (joined b c)))

let prop_vclock_join_idempotent =
  QCheck.Test.make ~count:500 ~name:"vclock: join idempotent, upper bound"
    QCheck.(pair vclock_arbitrary vclock_arbitrary)
    (fun (a, b) ->
      let j = joined a b in
      Vc.equal j (joined j a) && Vc.leq a j && Vc.leq b j)

let prop_vclock_incr_monotone =
  QCheck.Test.make ~count:500 ~name:"vclock: incr strictly monotone"
    QCheck.(pair vclock_arbitrary (int_bound 50))
    (fun (a, i) ->
      let b = Vc.copy a in
      Vc.incr b i;
      Vc.leq a b && (not (Vc.leq b a)) && Vc.get b i = Vc.get a i + 1)

let prop_vclock_compare_agrees_with_order =
  QCheck.Test.make ~count:500 ~name:"vclock: compare = pointwise order"
    QCheck.(pair vclock_arbitrary vclock_arbitrary)
    (fun (a, b) ->
      let expected =
        match (Vc.leq a b, Vc.leq b a) with
        | true, true -> Vc.Equal
        | true, false -> Vc.Less
        | false, true -> Vc.Greater
        | false, false -> Vc.Incomparable
      in
      Vc.compare a b = expected && Vc.equal a b = (expected = Vc.Equal))

(* --- AeroDrome engine ---------------------------------------------------------- *)

module Aero = Velodrome_core.Aero

let aero = Aero.backend ()

let test_aero_detects_cycle () =
  (* The canonical violation: t1's write interposes between t0's write
     and read of x inside one atomic block — edges t0 -> t1 -> t0. *)
  let ws = feed aero [ bg t0 l0; wr t0 x; wr t1 x; rd t0 x; en t0 ] in
  check int "one violation" 1 (List.length ws);
  match ws with
  | [ w ] ->
    check bool "atomicity kind" true (w.Warning.kind = Warning.Atomicity_violation);
    check bool "blames the block" true (w.Warning.label = Some l0);
    check int "at the closing read" 3 w.Warning.index
  | _ -> assert false

let test_aero_serializable_clean () =
  let ws =
    feed aero
      [
        bg t0 l0; acq t0 m; wr t0 x; rd t0 x; rel t0 m; en t0;
        bg t1 l1; acq t1 m; wr t1 x; rd t1 x; rel t1 m; en t1;
      ]
  in
  check int "serializable" 0 (List.length ws)

let test_aero_lock_cycle () =
  (* Lock release/acquire edges alone can close the cycle. *)
  let ws =
    feed aero
      [
        bg t0 l0; acq t0 m; rel t0 m;
        acq t1 m; wr t1 x; rel t1 m;
        rd t0 x; en t0;
      ]
  in
  check int "lock edge cycle" 1 (List.length ws)

let test_aero_late_predecessor () =
  (* The subtlety the forward-propagation exists for: u's transaction
     gains a predecessor (w) *after* t has already joined u's clock, and
     the cycle then closes at w. Snapshot clocks would miss it. *)
  (* t1 reads x from t0's open txn; t0's txn then reads y written by t2;
     finally t2 reads z written by t1: cycle t0 -> t1 -> t2 -> t0 must
     surface at the last read. *)
  let ws =
    feed aero
      [
        bg t0 l0; bg t1 l1; bg t2 l2;
        wr t0 x; rd t1 x;  (* t0 -> t1 *)
        wr t2 y;  (* then t0 gains predecessor t2 *)
        wr t1 z;
        rd t0 y;  (* t2 -> t0 *)
        rd t2 z;  (* t1 -> t2 closes the cycle here *)
        en t0; en t1; en t2;
      ]
  in
  check int "transitive cycle found" 1 (List.length ws);
  match ws with
  | [ w ] -> check int "at the closing read" 8 w.Warning.index
  | _ -> assert false

let test_aero_unary_transactions () =
  (* Operations outside atomic blocks are unary transactions: they feed
     the happens-before state but never blame a label. *)
  let ws = feed aero [ wr t0 x; wr t1 x; rd t0 x; wr t1 x ] in
  List.iter
    (fun (w : Warning.t) -> check bool "no label" true (w.Warning.label = None))
    ws

let test_aero_matches_basic_counts () =
  let tr =
    Trace.of_ops
      [ bg t0 l0; wr t0 x; wr t1 x; rd t0 x; wr t1 x; rd t0 x; en t0 ]
  in
  let a = run_aero tr and b = run_basic tr in
  check int "cycles agree" (Velodrome_core.Basic.cycles_found b)
    (Aero.cycles_found a);
  check (Alcotest.option int) "first index agrees"
    (Velodrome_core.Basic.first_error_index b)
    (Aero.first_error_index a)

(* --- the three-way differential harness ---------------------------------------

   Two independent sound-and-complete algorithms (vector clocks vs an
   explicit happens-before graph) must agree on every trace: same
   verdict, same first violating event, and warning-for-warning
   agreement between Aero and Basic. Replayed over every workload and
   over generated programs under the three schedule families of the PR 5
   gate, with a one-command replay printed on mismatch. *)

open Velodrome_sim

let gate_seed = 7

let gate_configs seed =
  [
    ("round-robin", { Run.default_config with policy = Run.Round_robin });
    ( Printf.sprintf "random(seed %d)" seed,
      { Run.default_config with policy = Run.Random seed } );
    ( Printf.sprintf "adversarial(seed %d)" seed,
      { Run.default_config with policy = Run.Random seed; adversarial = true }
    );
  ]

let recorded_trace ~config program =
  let config = { config with Run.record_trace = true } in
  let res = Run.run ~config program [] in
  Option.get res.Run.trace

let assert_trio what program =
  List.iter
    (fun (sched, config) ->
      let tr = recorded_trace ~config program in
      match engine_trio tr with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s (schedule %s): %s" what sched msg)
    (gate_configs gate_seed)

let test_trio_workloads () =
  List.iter
    (fun w ->
      assert_trio
        (Printf.sprintf "three-way: workload %s" w.Velodrome_workloads.Workload.name)
        (w.Velodrome_workloads.Workload.build Velodrome_workloads.Workload.Small))
    Velodrome_workloads.Workload.all

(* On a generated-program mismatch, identify the program exactly and
   print the single command that replays it — the PR 5 gate idiom
   (`analyze --gate` runs this same trio on its recorded traces). *)
let prop_trio_generated =
  QCheck.Test.make ~count:300
    ~name:"three-way: aero = engine = basic on generated programs"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let program, info =
        Progen.generate_info (Velodrome_util.Rng.create seed)
      in
      List.iter
        (fun (sched, config) ->
          let tr = recorded_trace ~config program in
          match engine_trio tr with
          | Ok _ -> ()
          | Error msg ->
            Alcotest.failf
              "three-way: generated program FAILED: progen seed %d, family \
               %s, schedule %s: %s@.replay: velodrome analyze --generated 1 \
               --gen-seed %d --seeds %d --gate"
              seed
              (String.concat "+" info.Progen.families)
              sched msg seed gate_seed)
        (gate_configs gate_seed);
      true)

let suite =
  ( "backends",
    [
      Alcotest.test_case "eraser race" `Quick test_eraser_detects_race;
      Alcotest.test_case "eraser locked" `Quick test_eraser_locked_clean;
      Alcotest.test_case "eraser read-shared" `Quick test_eraser_read_shared_clean;
      Alcotest.test_case "eraser init pattern" `Quick
        test_eraser_exclusive_then_shared_modified;
      Alcotest.test_case "eraser intersection" `Quick
        test_eraser_lockset_intersection;
      Alcotest.test_case "eraser volatile" `Quick test_eraser_volatile_exempt;
      Alcotest.test_case "eraser dedup" `Quick test_eraser_dedup_per_var;
      Alcotest.test_case "vclock basics" `Quick test_vclock_basics;
      Alcotest.test_case "hb unordered" `Quick test_hb_detects_unordered;
      Alcotest.test_case "hb lock orders" `Quick test_hb_lock_orders;
      Alcotest.test_case "hb transitive" `Quick test_hb_transitive;
      Alcotest.test_case "hb read-write" `Quick test_hb_read_write_race;
      Alcotest.test_case "hb unrelated lock" `Quick
        test_hb_not_fooled_by_unrelated_lock;
      Alcotest.test_case "hb program order" `Quick test_hb_program_order_clean;
      Alcotest.test_case "epoch pack" `Quick test_epoch_pack;
      Alcotest.test_case "fasttrack race" `Quick test_fasttrack_detects_race;
      Alcotest.test_case "fasttrack locked" `Quick test_fasttrack_lock_clean;
      Alcotest.test_case "fasttrack inflation" `Quick
        test_fasttrack_read_share_then_write;
      QCheck_alcotest.to_alcotest prop_fasttrack_equals_full_vc;
      Alcotest.test_case "atomizer reducible" `Quick test_atomizer_reducible_clean;
      Alcotest.test_case "atomizer nested locks" `Quick
        test_atomizer_two_locks_nested_clean;
      Alcotest.test_case "atomizer acq after rel" `Quick
        test_atomizer_acquire_after_release;
      Alcotest.test_case "atomizer racy rmw" `Quick test_atomizer_racy_rmw_flagged;
      Alcotest.test_case "atomizer single racy ok" `Quick
        test_atomizer_single_racy_access_ok;
      Alcotest.test_case "atomizer volatile FA" `Quick
        test_atomizer_volatile_false_alarm;
      Alcotest.test_case "atomizer outside" `Quick
        test_atomizer_outside_blocks_ignored;
      Alcotest.test_case "atomizer pause hint" `Quick test_atomizer_pause_hint;
      Alcotest.test_case "2pl clean" `Quick test_twopl_clean;
      Alcotest.test_case "2pl violation" `Quick test_twopl_violation;
      Alcotest.test_case "2pl per-block reset" `Quick
        test_twopl_resets_between_blocks;
      Alcotest.test_case "2pl outside blocks" `Quick
        test_twopl_outside_blocks_free;
      Alcotest.test_case "2pl strict unprotected" `Quick
        test_twopl_strict_unprotected_access;
      Alcotest.test_case "2pl strict volatile" `Quick
        test_twopl_strict_volatile_exempt;
      Alcotest.test_case "2pl false alarm" `Quick
        test_twopl_false_alarm_on_serializable;
      QCheck_alcotest.to_alcotest prop_vclock_join_commutes;
      QCheck_alcotest.to_alcotest prop_vclock_join_assoc;
      QCheck_alcotest.to_alcotest prop_vclock_join_idempotent;
      QCheck_alcotest.to_alcotest prop_vclock_incr_monotone;
      QCheck_alcotest.to_alcotest prop_vclock_compare_agrees_with_order;
      Alcotest.test_case "aero cycle" `Quick test_aero_detects_cycle;
      Alcotest.test_case "aero serializable" `Quick test_aero_serializable_clean;
      Alcotest.test_case "aero lock cycle" `Quick test_aero_lock_cycle;
      Alcotest.test_case "aero late predecessor" `Quick
        test_aero_late_predecessor;
      Alcotest.test_case "aero unary" `Quick test_aero_unary_transactions;
      Alcotest.test_case "aero = basic counts" `Quick
        test_aero_matches_basic_counts;
      Alcotest.test_case "three-way workloads" `Quick test_trio_workloads;
      QCheck_alcotest.to_alcotest ~long:false prop_trio_generated;
    ] )
