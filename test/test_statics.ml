(* The static pre-pass: unit tests for each pipeline stage, then the
   differential soundness artifacts — the blame gate (no statically
   proved block is ever refuted by dynamic Velodrome, under round-robin,
   random and adversarial schedules) and the filter differential (the
   static_atomic event filter changes no back-end's warnings outside
   proved blocks, for all six back-ends). *)

open Velodrome_sim
open Velodrome_analysis
module Cfg = Velodrome_statics.Cfg
module Lockset = Velodrome_statics.Lockset
module Mhp = Velodrome_statics.Mhp
module Races = Velodrome_statics.Races
module Movers = Velodrome_statics.Movers
module Reduce = Velodrome_statics.Reduce
module Values = Velodrome_statics.Values
module Statics = Velodrome_statics.Statics
module Workload = Velodrome_workloads.Workload

let check = Alcotest.check
let parse = Velodrome_lang.Parser.parse

(* --- cfg ------------------------------------------------------------------- *)

let effs_of cfg =
  let out = ref [] in
  Cfg.iter_nodes (fun n -> out := n.Cfg.eff :: !out) cfg;
  List.rev !out

let test_cfg_shapes () =
  let p =
    parse
      "var x; lock m; thread { acquire m; x = 1; release m; } thread { x = \
       2; }"
  in
  let cfg = Cfg.of_program p in
  check Alcotest.int "entries" 2 (Array.length (Cfg.entries cfg));
  let effs = effs_of cfg in
  let count f = List.length (List.filter f effs) in
  check Alcotest.int "acquires" 1
    (count (function Cfg.Acquire _ -> true | _ -> false));
  check Alcotest.int "releases" 1
    (count (function Cfg.Release _ -> true | _ -> false));
  check Alcotest.int "writes" 2
    (count (function Cfg.Write _ -> true | _ -> false))

let test_cfg_loop_backedge () =
  let p = parse "var x; thread { k = 0; while (k < 3) { x = 1; } }" in
  let cfg = Cfg.of_program p in
  (* The loop head must be reachable from the body end: some node has a
     successor with a smaller id. *)
  let back = ref false in
  Cfg.iter_nodes
    (fun n ->
      List.iter
        (fun s -> if s <= n.Cfg.id then back := true)
        (Cfg.succs cfg n.Cfg.id))
    cfg;
  check Alcotest.bool "has back edge" true !back

(* --- lockset ---------------------------------------------------------------- *)

let find_node cfg pred =
  let hit = ref None in
  Cfg.iter_nodes
    (fun n -> if !hit = None && pred n then hit := Some n)
    cfg;
  match !hit with Some n -> n | None -> Alcotest.fail "node not found"

let write_of cfg names name =
  find_node cfg (fun n ->
      match n.Cfg.eff with
      | Cfg.Write v -> Velodrome_trace.Names.var_name names v = name
      | _ -> false)

let test_lockset_must () =
  let p =
    parse
      "var a; var b; lock m; thread { sync m { a = 1; } if (1 == 1) { \
       acquire m; b = 1; release m; } else { b = 2; } }"
  in
  let cfg = Cfg.of_program p in
  let ls = Lockset.analyze cfg in
  let names = p.Ast.names in
  let n_a = write_of cfg names "a" in
  check
    Alcotest.(list int)
    "m held at guarded write" [ 0 ]
    (Lockset.locks_held ls n_a.Cfg.id);
  (* The else-branch write holds nothing. *)
  let n_b2 =
    find_node cfg (fun n ->
        match n.Cfg.eff with
        | Cfg.Write v ->
          Velodrome_trace.Names.var_name names v = "b"
          && n.Cfg.site.Cfg.path <> (write_of cfg names "b").Cfg.site.Cfg.path
        | _ -> false)
  in
  check
    Alcotest.(list int)
    "nothing held in else branch" []
    (Lockset.locks_held ls n_b2.Cfg.id)

let test_lockset_join_drops () =
  (* m is held only on one path into the final write, so must-analysis
     may not claim it. *)
  let p =
    parse
      "var x; lock m; thread { if (1 == 1) { acquire m; } k = 0; x = 1; if \
       (1 == 1) { release m; } }"
  in
  let cfg = Cfg.of_program p in
  let ls = Lockset.analyze cfg in
  let n = write_of cfg p.Ast.names "x" in
  check Alcotest.(list int) "join drops m" [] (Lockset.locks_held ls n.Cfg.id)

(* --- mhp -------------------------------------------------------------------- *)

let test_mhp () =
  let b = Builder.create () in
  let x = Builder.var b "x" in
  let outer = Builder.label b "outer" in
  let inner = Builder.label b "inner" in
  Builder.thread b
    [
      Builder.atomic outer
        [ Builder.atomic inner [ Builder.write x (Builder.i 1) ] ];
    ];
  Builder.thread b [ Builder.work 2; Builder.yield ];
  Builder.thread b [ Builder.read (Builder.fresh_reg b) x ];
  let p = Builder.program b in
  let names = p.Ast.names in
  let cfg = Cfg.of_program p in
  let mhp = Mhp.analyze cfg in
  check Alcotest.int "three threads" 3 (Mhp.thread_count mhp);
  check Alcotest.bool "writer thread effectful" true (Mhp.effectful mhp 0);
  check Alcotest.bool "silent thread not effectful" false
    (Mhp.effectful mhp 1);
  check Alcotest.bool "writer MHP reader" true (Mhp.threads mhp 0 2);
  check Alcotest.bool "no MHP with a silent thread" false
    (Mhp.threads mhp 0 1);
  check Alcotest.bool "no MHP with itself" false (Mhp.threads mhp 0 0);
  let w = write_of cfg names "x" in
  check
    Alcotest.(list string)
    "enclosing atomics innermost first" [ "inner"; "outer" ]
    (List.map
       (Velodrome_trace.Names.label_name names)
       (Mhp.enclosing_atomics mhp w.Cfg.id));
  check Alcotest.bool "reachable write" true (Mhp.reachable mhp w.Cfg.id)

(* --- races ------------------------------------------------------------------- *)

let races_of p =
  let cfg = Cfg.of_program p in
  let ls = Lockset.analyze cfg in
  (cfg, Races.analyze p.Ast.names cfg ls (Mhp.analyze cfg))

(* The single-writer/many-reader shape: the writer holds both pair locks,
   each reader holds its own. Every conflicting pair shares a lock — no
   race pair — yet no single lock guards all sites. *)
let pairwise_free_src =
  "var x; lock a; lock b; thread { sync a { sync b { x = 1; } } } thread { \
   sync a { q <- x; } } thread { sync b { q <- x; } }"

let test_races_pairwise_free () =
  let p = parse pairwise_free_src in
  let _, races = races_of p in
  check Alcotest.int "no race pairs" 0 (Races.pair_count races);
  check Alcotest.int "no racy vars" 0 (Races.racy_var_count races);
  check Alcotest.int "three access sites" 3 (Races.access_sites races)

let test_races_pairs () =
  (* Same shape plus an unlocked reader: only the pairs against the
     writer's write appear (read/read does not conflict), and only the
     sites actually in a pair are racy. *)
  let p =
    parse
      "var x; lock a; lock b; thread { sync a { sync b { x = 1; } } } \
       thread { sync a { q <- x; } } thread { q <- x; }"
  in
  let cfg, races = races_of p in
  check Alcotest.int "one race pair" 1 (Races.pair_count races);
  let write_node = write_of cfg p.Ast.names "x" in
  let x =
    match write_node.Cfg.eff with Cfg.Write v -> v | _ -> assert false
  in
  check Alcotest.bool "x is racy" true (Races.racy_var races x);
  let write_site = write_node.Cfg.site in
  check Alcotest.bool "write site is racy" true
    (Races.racy_site races write_site);
  let bare_read =
    find_node cfg (fun n ->
        match n.Cfg.eff with
        | Cfg.Read _ -> n.Cfg.site.Cfg.thread = 2
        | _ -> false)
  in
  let locked_read =
    find_node cfg (fun n ->
        match n.Cfg.eff with
        | Cfg.Read _ -> n.Cfg.site.Cfg.thread = 1
        | _ -> false)
  in
  check Alcotest.bool "bare read is racy" true
    (Races.racy_site races bare_read.Cfg.site);
  check Alcotest.bool "locked read is pair-free" false
    (Races.racy_site races locked_read.Cfg.site);
  let pair = Option.get (Races.witness races write_site) in
  check Alcotest.bool "witness joins write and bare read" true
    (Cfg.site_compare (Races.other_end pair write_site).Races.site
       bare_read.Cfg.site
    = 0)

let test_races_ignore_volatile () =
  let p = parse "volatile v; thread 2 { v = 1; q <- v; }" in
  let _, races = races_of p in
  check Alcotest.int "volatiles never race statically" 0
    (Races.pair_count races)

(* --- movers ----------------------------------------------------------------- *)

let movers_of p =
  let cfg = Cfg.of_program p in
  let ls = Lockset.analyze cfg in
  let mhp = Mhp.analyze cfg in
  Movers.analyze p.Ast.names cfg ls (Races.analyze p.Ast.names cfg ls mhp)

let klass_at p mv cfg name kind =
  let n =
    find_node cfg (fun n ->
        match (n.Cfg.eff, kind) with
        | Cfg.Read v, `R | Cfg.Write v, `W ->
          Velodrome_trace.Names.var_name p.Ast.names v = name
        | _ -> false)
  in
  Option.get (Movers.at_site mv n.Cfg.site)

let test_mover_classes () =
  let p =
    parse
      "var g; var ro = 5; var u; var p; volatile w; lock m; thread 2 { sync \
       m { g = 1; } a = ro; u = 1; w = 1; } thread { p = 1; q <- p; }"
  in
  (* Declare p shared but touched by one thread only. *)
  let cfg = Cfg.of_program p in
  let mv = movers_of p in
  (match klass_at p mv cfg "g" `W with
  | Movers.Both (Movers.Guarded _) -> ()
  | k ->
    Alcotest.failf "g: %a"
      (fun ppf -> Movers.pp_klass p.Ast.names ppf)
      k);
  check Alcotest.bool "ro is read-only both-mover" true
    (klass_at p mv cfg "ro" `R = Movers.Both Movers.Read_only);
  check Alcotest.bool "u is racy non-mover" true
    (match klass_at p mv cfg "u" `W with
    | Movers.Non (Movers.Racy _) -> true
    | _ -> false);
  check Alcotest.bool "volatile is non-mover" true
    (klass_at p mv cfg "w" `W = Movers.Non Movers.Volatile_access)

let test_mover_thread_local () =
  let p = parse "var p; var u; thread { p = 1; } thread { u = 1; }" in
  let cfg = Cfg.of_program p in
  let mv = movers_of p in
  check Alcotest.bool "single-thread var is both-mover" true
    (klass_at p mv cfg "p" `W = Movers.Both Movers.Thread_local)

let test_mover_race_free () =
  (* The pairwise rule proves the single-writer/many-reader shape that
     has no global guard. *)
  let p = parse pairwise_free_src in
  let cfg = Cfg.of_program p in
  let mv = movers_of p in
  let write_node = write_of cfg p.Ast.names "x" in
  let x =
    match write_node.Cfg.eff with Cfg.Write v -> v | _ -> assert false
  in
  check Alcotest.bool "write is race-free both-mover" true
    (Movers.at_site mv write_node.Cfg.site
    = Some (Movers.Both Movers.Race_free));
  check Alcotest.bool "race-free written var is suppressible" true
    (Movers.suppressible mv x)

let test_mover_per_site () =
  (* Per-site precision: one variable, a guarded reader and a bare
     reader. Only the pair (write, bare read) races, so the guarded read
     keeps its both-mover class while the bare read turns non-mover with
     the write as witness. *)
  let p =
    parse
      "var x; lock a; thread { sync a { x = 1; } } thread { sync a { q <- \
       x; } } thread { q <- x; }"
  in
  let cfg = Cfg.of_program p in
  let mv = movers_of p in
  let locked_read =
    find_node cfg (fun n ->
        match n.Cfg.eff with
        | Cfg.Read _ -> n.Cfg.site.Cfg.thread = 1
        | _ -> false)
  in
  let bare_read =
    find_node cfg (fun n ->
        match n.Cfg.eff with
        | Cfg.Read _ -> n.Cfg.site.Cfg.thread = 2
        | _ -> false)
  in
  let write_node = write_of cfg p.Ast.names "x" in
  check Alcotest.bool "guarded read stays a both-mover" true
    (match Movers.at_site mv locked_read.Cfg.site with
    | Some (Movers.Both _) -> true
    | _ -> false);
  check Alcotest.bool "bare read races with the write" true
    (Movers.at_site mv bare_read.Cfg.site
    = Some (Movers.Non (Movers.Racy write_node.Cfg.site)));
  check Alcotest.bool "write races too" true
    (match Movers.at_site mv write_node.Cfg.site with
    | Some (Movers.Non (Movers.Racy _)) -> true
    | _ -> false)

let test_mover_lock_ops () =
  let p = parse "var g; lock m; thread 2 { sync m { sync m { g = 1; } } }" in
  let cfg = Cfg.of_program p in
  let mv = movers_of p in
  (* sync splices inline, so the two acquires are siblings; thread 0's
     come first in site order. *)
  let acqs = ref [] in
  Cfg.iter_nodes
    (fun n ->
      match n.Cfg.eff with
      | Cfg.Acquire _ when n.Cfg.site.Cfg.thread = 0 ->
        acqs := n.Cfg.site :: !acqs
      | _ -> ())
    cfg;
  match List.sort Cfg.site_compare !acqs with
  | [ outer; inner ] ->
    check Alcotest.bool "outer acquire is right-mover" true
      (Movers.at_site mv outer = Some Movers.Right);
    check Alcotest.bool "re-entrant acquire is both-mover" true
      (Movers.at_site mv inner = Some (Movers.Both Movers.Reentrant))
  | l -> Alcotest.failf "expected 2 acquires in thread 0, got %d" (List.length l)

(* --- reduce ----------------------------------------------------------------- *)

let block_of src label =
  let p = parse src in
  let st = Statics.analyze p in
  List.find (fun b -> b.Statics.name = label) (Statics.blocks st)

let verdict_of src label = (block_of src label).Statics.verdict

let proved v =
  match v with Statics.Proved_atomic _ -> true | _ -> false

(* The Lipton-only view of a verdict, for the reduction-specific tests:
   proved by Lipton, or the reduction-failure reasons. *)
let lipton_proved v =
  match v with Statics.Proved_atomic Statics.Lipton -> true | _ -> false

let test_reduce_proved () =
  check Alcotest.bool "single sync proved" true
    (lipton_proved
       (verdict_of
          "var g; lock m; thread 2 { atomic \"a\" { sync m { g = g + 1; } } }"
          "a"));
  check Alcotest.bool "loop inside sync proved" true
    (lipton_proved
       (verdict_of
          "var g; lock m; thread 2 { atomic \"a\" { sync m { k = 0; while \
           (k < 3) { g = g + 1; k = k + 1; } } } }"
          "a"))

let test_reduce_unknown () =
  check Alcotest.bool "two racy non-movers" false
    (proved
       (verdict_of "var x; var y; thread 2 { atomic \"a\" { x = 1; y = 1; } }"
          "a"));
  (* Two critical sections of the same lock: a right-mover after a
     left-mover, and indeed not atomic (check-then-act window). *)
  check Alcotest.bool "sync; sync is unknown" false
    (proved
       (verdict_of
          "var g; lock m; thread 2 { atomic \"a\" { sync m { g = 1; } sync \
           m { g = 2; } } }"
          "a"));
  (* A loop whose body opens and closes the lock re-enters the automaton
     in the post phase on the second iteration. *)
  check Alcotest.bool "loop of syncs is unknown" false
    (proved
       (verdict_of
          "var g; lock m; thread 2 { atomic \"a\" { k = 0; while (k < 3) { \
           sync m { g = 1; } k = k + 1; } } }"
          "a"))

let test_reduce_single_non_mover () =
  check Alcotest.bool "one non-mover commit point proved" true
    (lipton_proved
       (verdict_of "var x; thread 2 { atomic \"a\" { x = 1; } }" "a"))

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_reduce_while_acquire_release () =
  (* Regression for the While fixpoint: a body that acquires AND releases
     the lock re-enters the loop head in the post phase, so the join at
     the head must converge (not oscillate) and flag the second
     iteration's acquire as a right-mover past the commit point. *)
  let b =
    block_of
      "var g; lock m; thread 2 { atomic \"a\" { k = 0; while (k < 2) { \
       acquire m; g = g + 1; release m; k = k + 1; } } }"
      "a"
  in
  check Alcotest.bool "acquire/release loop body is unknown" false
    (lipton_proved b.Statics.verdict);
  check Alcotest.bool "the looping acquire is the reason" true
    (List.exists
       (fun (r : Reduce.reason) ->
         contains r.Reduce.detail "right-mover after the commit point")
       b.Statics.lipton_reasons);
  (* The fixpoint must not poison the sound variant: hoisting the
     acquire/release around the loop keeps the block proved. *)
  check Alcotest.bool "hoisted acquire/release still proved" true
    (lipton_proved
       (verdict_of
          "var g; lock m; thread 2 { atomic \"a\" { acquire m; k = 0; \
           while (k < 2) { g = g + 1; k = k + 1; } release m; } }"
          "a"))

let test_reduce_edge_cases () =
  (* Phase-set edge cases of the reduction automaton. A block with only
     silent statements never leaves the pre phase. *)
  check Alcotest.bool "work/yield-only block proved" true
    (lipton_proved
       (verdict_of "thread { atomic \"a\" { work 2; yield; } }" "a"));
  check Alcotest.bool "empty block proved" true
    (lipton_proved (verdict_of "thread { atomic \"a\" { skip; } }" "a"));
  (* If nested in While with the critical section on one branch only:
     the join at the loop head mixes an iteration that crossed the
     commit point with one that did not, and must still converge and
     flag the next iteration's acquire. *)
  let b =
    block_of
      "var g; lock m; thread 2 { atomic \"a\" { k = 0; while (k < 2) { if \
       (k < 1) { acquire m; g = g + 1; release m; } else { skip; } k = k + \
       1; } } }"
      "a"
  in
  check Alcotest.bool "one-branch acquire in loop is not lipton-proved"
    false
    (lipton_proved b.Statics.verdict);
  check Alcotest.bool "reasons name the looping acquire" true
    (List.exists
       (fun (r : Reduce.reason) ->
         contains r.Reduce.detail "right-mover after the commit point")
       b.Statics.lipton_reasons)

(* --- the transactional conflict graph --------------------------------------- *)

module Txgraph = Velodrome_statics.Txgraph

let test_txgraph_verdicts () =
  (* A consistently guarded single-sync block: its only cross-thread
     edges are the lock-order edges, and a cycle arriving at the acquire
     has no earlier op to have departed from. *)
  (match
     verdict_of
       "var g; lock m; thread 2 { atomic \"a\" { sync m { g = g + 1; } } }"
       "a"
   with
  | Statics.Proved_atomic _ -> ()
  | _ -> Alcotest.fail "guarded single sync not proved");
  (* sync;sync: the classic check-then-act window. The graph must find
     the cycle out through the first release, around the other thread's
     critical section, and back into the second acquire. *)
  (match
     verdict_of
       "var g; lock m; thread 2 { atomic \"a\" { sync m { g = 1; } sync m \
        { g = 2; } } }"
       "a"
   with
  | Statics.May_violate w ->
    check Alcotest.bool "witness path is non-empty" true
      (w.Txgraph.path <> [])
  | _ -> Alcotest.fail "sync;sync not may-violate");
  (* A loop of syncs releases the lock mid-block on every iteration —
     the multiset shape — and must also be flagged. *)
  match
    verdict_of
      "var g; lock m; thread 2 { atomic \"a\" { k = 0; while (k < 3) { \
       sync m { g = 1; } k = k + 1; } } }"
      "a"
  with
  | Statics.May_violate _ -> ()
  | _ -> Alcotest.fail "loop of syncs not may-violate"

let test_txgraph_snapshot_patterns () =
  (* The cycle-freedom showcase: racy multi-read blocks Lipton rejects
     but no dynamic cycle can enter. One dedicated single-write writer
     per cell and a single reader block over those cells. *)
  (match
     verdict_of
       "var a; var b; thread { a = 1; } thread { b = 1; } thread { atomic \
        \"snap\" { ra <- a; rb <- b; } }"
       "snap"
   with
  | Statics.Proved_atomic Statics.Cycle_free -> ()
  | Statics.Proved_atomic Statics.Lipton ->
    Alcotest.fail "snapshot should not be lipton-provable"
  | _ -> Alcotest.fail "snapshot reader not proved cycle-free");
  (* One-way publish: data then flag from one writer thread, checked
     flag-then-data by a single gate reader. *)
  (match
     verdict_of
       "var d; var f; thread { d = 1; f = 1; } thread { atomic \"gate\" { \
        rf <- f; rd <- d; } }"
       "gate"
   with
  | Statics.Proved_atomic Statics.Cycle_free -> ()
  | _ -> Alcotest.fail "publish gate reader not proved cycle-free");
  (* Both perturbations that make the pattern genuinely violable must
     stay may-violate: one writer covering two cells (its program order
     gives the torn snapshot)... *)
  (match
     verdict_of
       "var a; var b; thread { a = 1; b = 1; } thread { atomic \"snap\" { \
        ra <- a; rb <- b; } }"
       "snap"
   with
  | Statics.May_violate _ -> ()
  | _ -> Alcotest.fail "single-writer torn snapshot not may-violate");
  (* ...and a second reader block over the same cells (old/new vs
     new/old is unserializable). *)
  match
    verdict_of
      "var a; var b; thread { a = 1; } thread { b = 1; } thread 2 { atomic \
       \"snap\" { ra <- a; rb <- b; } }"
      "snap"
  with
  | Statics.May_violate _ -> ()
  | _ -> Alcotest.fail "two-reader snapshot not may-violate"

let test_progen_snapshot_family () =
  (* The generated snapshot family must appear with useful frequency and
     every instance must be proved by cycle-freedom (never by Lipton —
     its reads are racy by construction). *)
  let found = ref 0 in
  for seed = 1 to 30 do
    let p, info =
      Progen.generate_info (Velodrome_util.Rng.create seed)
    in
    if List.mem "snapshot" info.Progen.families then begin
      incr found;
      let st = Statics.analyze p in
      List.iter
        (fun (b : Statics.block) ->
          if
            b.Statics.name = "gen.snap.collect"
            || b.Statics.name = "gen.snap.check"
          then
            match b.Statics.verdict with
            | Statics.Proved_atomic Statics.Cycle_free -> ()
            | _ ->
              Alcotest.failf "seed %d: %s not proved cycle-free" seed
                b.Statics.name)
        (Statics.blocks st)
    end
  done;
  check Alcotest.bool "snapshot family occurs" true (!found >= 10)

(* --- value analysis ---------------------------------------------------------- *)

let itv = Alcotest.testable (Fmt.of_to_string Values.itv_to_string) ( = )

let test_values_arith () =
  let c = Values.const in
  (* Division and modulo by a zero singleton evaluate to 0, exactly as
     Ast.eval does. *)
  check Alcotest.int "eval div by zero" 0
    (Ast.eval (Array.make 4 0) (Ast.Div (Ast.Int 6, Ast.Int 0)));
  check Alcotest.int "eval mod by zero" 0
    (Ast.eval (Array.make 4 0) (Ast.Mod (Ast.Int 6, Ast.Int 0)));
  check itv "div by zero" (c 0) (Values.div (c 6) (c 0));
  check itv "mod by zero" (c 0) (Values.mod_ (c 6) (c 0));
  check itv "exact div" (c (-3)) (Values.div (c 7) (c (-2)));
  check itv "add" (Values.interval 3 7)
    (Values.add (Values.interval 1 4) (Values.interval 2 3));
  check itv "mul signs" (Values.interval (-8) 8)
    (Values.mul (Values.interval (-2) 2) (Values.interval (-4) 4));
  (* Interval division covering divisor 0 stays sound: result magnitude
     bounded by the dividend's. *)
  let d = Values.div (Values.interval 0 10) (Values.interval (-1) 1) in
  check Alcotest.bool "wide div covers quotients" true
    (List.for_all (fun q -> Values.mem q d) [ -10; -5; 0; 5; 10 ]);
  (* Near the magnitude limit arithmetic stays sound: the product of two
     in-range operands cannot wrap, and its huge result is either kept
     exactly or washed to infinity — never mis-claimed. Out-of-range
     inputs give up entirely. *)
  let huge = Values.mul (c (Values.limit - 1)) (c (Values.limit - 1)) in
  check Alcotest.bool "huge product contained" true
    (Values.mem ((Values.limit - 1) * (Values.limit - 1)) huge);
  check itv "out-of-range input gives top" Values.top
    (Values.add huge (c 1));
  check Alcotest.bool "mod sign follows dividend" true
    (Values.leq
       (Values.mod_ (Values.interval 0 100) (c 7))
       (Values.interval 0 6))

let test_values_widening_terminates () =
  (* A self-incrementing loop that never exits: the head fixpoint must
     widen to termination, and the exit arm is provably dead. *)
  let p = parse "var x; thread { k = 0; while (k >= 0) { k = k + 1; } x = 1; }" in
  let v = Values.analyze p in
  check Alcotest.bool "loop-exit arm dead" true
    (List.exists
       (fun (d : Values.dead_branch) -> d.Values.d_arm = Values.Loop_exit)
       (Values.dead_branches v));
  (* The write after the loop is unreachable. *)
  check Alcotest.bool "code after infinite loop dead" true
    (Values.dead_site v { Cfg.thread = 0; path = [ 2 ] });
  (* A bounded counted loop stays exact: after [while (k < 3) k++] the
     counter is exactly 3 (no premature widening). *)
  let p2 = parse "var x; thread { k = 0; while (k < 3) { k = k + 1; } x = k; }" in
  let v2 = Values.analyze p2 in
  (match Values.fact_at v2 { Cfg.thread = 0; path = [ 2 ] } with
  | Some f -> check itv "bounded loop exact" (Values.const 3) f.Values.itv
  | None -> Alcotest.fail "no fact at post-loop write");
  check Alcotest.int "bounded loop: nothing dead" 0 (Values.dead_site_count v2)

let test_values_tid_dispatch () =
  (* Two threads share one body dispatching on the tid register: each
     replica keeps exactly one arm. *)
  let p =
    parse
      "var a; var b; thread { if (tid == 0) { a = 1; } else { b = 2; } } \
       thread { if (tid == 0) { a = 1; } else { b = 2; } }"
  in
  let v = Values.analyze p in
  check Alcotest.bool "thread 0 else-arm dead" true
    (Values.dead_site v { Cfg.thread = 0; path = [ 0; 1; 0 ] });
  check Alcotest.bool "thread 1 then-arm dead" true
    (Values.dead_site v { Cfg.thread = 1; path = [ 0; 0; 0 ] });
  check Alcotest.bool "thread 0 then-arm live" false
    (Values.dead_site v { Cfg.thread = 0; path = [ 0; 0; 0 ] });
  check Alcotest.int "two dead branches" 2 (Values.dead_branch_count v);
  (* Variable invariants only join live writes plus the initial value. *)
  check Alcotest.bool "a invariant covers 0 and 1" true
    (Values.mem 0 (Values.var_interval v (Velodrome_trace.Ids.Var.of_int 0)));
  (* Branch refinement: reading a variable then branching on it refines
     the register in each arm (x's invariant is [1..7], so the then-arm
     pins k to [1..2]). *)
  let p2 =
    parse
      "var x = 1; var y; thread { k = x; if (k < 3) { y = k; } else { y = 7; \
       } } thread { x = 7; }"
  in
  let v2 = Values.analyze p2 in
  (* [k = x] parses as a prelude read plus a register copy, so the [if]
     sits at top-level index 2. *)
  (match Values.fact_at v2 { Cfg.thread = 0; path = [ 2; 0; 0 ] } with
  | Some f ->
    check itv "then-arm write refined" (Values.interval 1 2) f.Values.itv
  | None -> Alcotest.fail "no fact at refined write")

let test_dispatch_flip () =
  (* The acceptance example for the whole pass: the dispatch workload is
     May_violate on both blocks without value analysis and fully proved
     with it, with strictly fewer static race pairs. *)
  let program =
    (Option.get (Workload.find "dispatch")).Workload.build Workload.Small
  in
  let off = Statics.analyze ~values:false program in
  let on_ = Statics.analyze program in
  check Alcotest.int "values-off: both blocks may-violate" 2
    (Statics.may_violate_count off);
  check Alcotest.int "values-off: nothing proved" 0 (Statics.proved_count off);
  check Alcotest.int "values-on: both blocks proved" 2
    (Statics.proved_count on_);
  check Alcotest.int "values-on: update proved by lipton" 1
    (Statics.proved_lipton_count on_);
  check Alcotest.int "values-on: scan proved by cycle-freedom" 1
    (Statics.proved_cycle_free_count on_);
  check Alcotest.bool "race pairs strictly reduced" true
    (Statics.race_pair_count on_ < Statics.race_pair_count off);
  check Alcotest.bool "dead sites found" true (Statics.dead_site_count on_ > 0)

let test_progen_dispatch_family () =
  (* The generated tid-dispatch family must occur and flip the same way
     the workload does. *)
  let found = ref 0 in
  for seed = 1 to 30 do
    let p, info = Progen.generate_info (Velodrome_util.Rng.create seed) in
    if List.mem "dispatch" info.Progen.families then begin
      incr found;
      let on_ = Statics.analyze p in
      let off = Statics.analyze ~values:false p in
      List.iter
        (fun (b : Statics.block) ->
          if
            b.Statics.name = "gen.disp.update"
            || b.Statics.name = "gen.disp.scan"
          then begin
            (match b.Statics.verdict with
            | Statics.Proved_atomic _ -> ()
            | _ ->
              Alcotest.failf "seed %d: %s not proved with values on" seed
                b.Statics.name);
            if Statics.proved off b.Statics.label then
              Alcotest.failf "seed %d: %s proved even without values" seed
                b.Statics.name
          end)
        (Statics.blocks on_)
    end
  done;
  check Alcotest.bool "dispatch family occurs" true (!found >= 10)

(* --- whole-pipeline sanity over the workload suite -------------------------- *)

let test_workloads_analyze () =
  List.iter
    (fun w ->
      let st = Statics.analyze (w.Workload.build Workload.Small) in
      check Alcotest.bool
        (w.Workload.name ^ " has blocks")
        true
        (Statics.block_count st > 0))
    Workload.all;
  (* The raja workload is fully guarded; the multiset workload is the
     paper's canonical violation, so it must keep unproved blocks. *)
  let raja =
    Statics.analyze
      ((List.find (fun w -> w.Workload.name = "raja") Workload.all)
         .Workload.build Workload.Small)
  in
  check Alcotest.int "raja fully proved" (Statics.block_count raja)
    (Statics.proved_count raja);
  let multiset =
    Statics.analyze
      ((List.find (fun w -> w.Workload.name = "multiset") Workload.all)
         .Workload.build Workload.Small)
  in
  check Alcotest.bool "multiset keeps unproved blocks" true
    (Statics.proved_count multiset < Statics.block_count multiset)

let test_handoff_precision () =
  (* The acceptance example for the pairwise rule: the handoff payload
     has per-reader pair locks and no common guard, yet the workload is
     fully proved because no access pair races. *)
  let program =
    (Option.get (Workload.find "handoff")).Workload.build Workload.Small
  in
  let st = Statics.analyze program in
  check Alcotest.int "handoff has no race pairs" 0
    (Statics.race_pair_count st);
  check Alcotest.int "pairwise proves both methods"
    (Statics.block_count st) (Statics.proved_count st)

(* --- generated programs ------------------------------------------------------ *)

let generate seed =
  Progen.generate (Velodrome_util.Rng.create seed)

let prop_generated_wellformed =
  QCheck.Test.make ~count:300 ~name:"progen: well-formed programs"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = generate seed in
      Velodrome_lang.Check.check_program p = Ok ()
      &&
      (* and they terminate without deadlock under round-robin *)
      let res =
        Run.run
          ~config:{ Run.default_config with policy = Run.Round_robin }
          p []
      in
      not res.Run.deadlocked)

(* The three schedule families of the soundness gate. *)
let gate_configs seed =
  [
    { Run.default_config with policy = Run.Round_robin };
    { Run.default_config with policy = Run.Random seed };
    { Run.default_config with policy = Run.Random seed; adversarial = true };
  ]

(* Run dynamic Velodrome plus the two race detectors; return every label
   the blame analysis refuted and every variable Eraser or the
   happens-before detector warned about. *)
let dynamic_results program config =
  let names = program.Ast.names in
  let backends =
    [
      Backend.make (Velodrome_core.Engine.backend ()) names;
      Backend.make (Velodrome_eraser.Eraser.backend ()) names;
      Backend.make (Velodrome_hbrace.Hbrace.backend ()) names;
    ]
  in
  let res = Run.run ~config program backends in
  let refuted =
    List.concat_map (fun (w : Warning.t) -> w.Warning.refuted) res.Run.warnings
  in
  let race_vars =
    List.filter_map
      (fun (w : Warning.t) ->
        match (w.Warning.kind, w.Warning.var) with
        | Warning.Race, Some x -> Some x
        | _ -> None)
      res.Run.warnings
  in
  (refuted, race_vars)

let statically_may_violate st l =
  List.exists
    (fun b ->
      Velodrome_trace.Ids.Label.equal b.Statics.label l
      &&
      match b.Statics.verdict with
      | Statics.May_violate _ -> true
      | _ -> false)
    (Statics.blocks st)

(* Both directions of the soundness gate: no proved block is ever refuted
   by dynamic Velodrome and every refuted block is statically may-violate
   (dynamic blame is a real non-serializable cycle, and the static graph
   over-approximates every dynamic edge, so a blamed block that is
   cycle-free — or even budget-exhausted, at these program sizes — is a
   statics bug); and every dynamic race warning is covered by a static
   race pair on the same variable (a pair-free variable is race-free on
   every execution).

   The value-analysis obligations ride along on an execution hook: no
   instruction may ever run at a statically-dead site, and every value a
   [Local]/[Read]/[Write] produces must lie within the site's static
   interval fact. *)
let value_observer vals violation =
  Option.map
    (fun v (o : Interp.obs) ->
      if !violation = None then begin
        let site = { Cfg.thread = o.Interp.o_thread; path = o.Interp.o_path } in
        if Values.dead_site v site then
          violation :=
            Some
              (Printf.sprintf "instruction executed at dead site %s"
                 (Cfg.site_to_string site))
        else
          match (o.Interp.o_value, Values.fact_at v site) with
          | Some x, Some f when not (Values.mem x f.Values.itv) ->
            violation :=
              Some
                (Printf.sprintf "value %d at %s outside static interval %s" x
                   (Cfg.site_to_string site)
                   (Values.itv_to_string f.Values.itv))
          | _ -> ()
      end)
    vals

let assert_gate what program st =
  let races = Statics.races st in
  let vals = Statics.values st in
  List.iteri
    (fun k config ->
      let violation = ref None in
      let config =
        { config with Run.observe = value_observer vals violation }
      in
      let refuted, race_vars = dynamic_results program config in
      (match !violation with
      | Some msg -> Alcotest.failf "%s: %s (schedule %d)" what msg k
      | None -> ());
      List.iter
        (fun l ->
          if Statics.proved st l then
            Alcotest.failf
              "%s: statically-proved block %s refuted dynamically (schedule \
               %d)"
              what
              (Velodrome_trace.Names.label_name program.Ast.names l)
              k
          else if not (statically_may_violate st l) then
            Alcotest.failf
              "%s: dynamically blamed block %s is not statically \
               may-violate (schedule %d)"
              what
              (Velodrome_trace.Names.label_name program.Ast.names l)
              k)
        refuted;
      List.iter
        (fun x ->
          if not (Velodrome_statics.Races.racy_var races x) then
            Alcotest.failf
              "%s: dynamic race on %s covered by no static race pair \
               (schedule %d)"
              what
              (Velodrome_trace.Names.var_name program.Ast.names x)
              k)
        race_vars)
    (gate_configs 7)

let prop_gate_generated =
  QCheck.Test.make ~count:300
    ~name:"gate: dynamic blame matches static verdicts"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = generate seed in
      let st = Statics.analyze p in
      assert_gate (Printf.sprintf "seed %d" seed) p st;
      true)

let test_gate_workloads () =
  List.iter
    (fun w ->
      let program = w.Workload.build Workload.Small in
      let st = Statics.analyze program in
      assert_gate w.Workload.name program st)
    Workload.all

(* --- the filter differential ------------------------------------------------- *)

let six_backends names =
  [
    ("velodrome", fun () -> Backend.make (Velodrome_core.Engine.backend ()) names);
    ( "velodrome-basic",
      fun () -> Backend.make (Velodrome_core.Basic.backend ()) names );
    ( "atomizer",
      fun () -> Backend.make (Velodrome_atomizer.Atomizer.backend ()) names );
    ("eraser", fun () -> Backend.make (Velodrome_eraser.Eraser.backend ()) names);
    ("hb", fun () -> Backend.make (Velodrome_hbrace.Hbrace.backend ()) names);
    ( "fasttrack",
      fun () -> Backend.make (Velodrome_hbrace.Fasttrack.backend ()) names );
  ]

(* Warnings projected to comparable keys, excluding those attributed to
   statically-proved blocks (the filter is allowed — expected — to
   silence those). The analysis name is dropped: the filtered run's
   backend carries a "+static" suffix. *)
let projected st names warnings =
  Warning.dedup_by_label warnings
  |> List.filter_map (fun (w : Warning.t) ->
         match w.Warning.label with
         | Some l when Statics.proved st l -> None
         | label ->
           Some
             (Printf.sprintf "%s label=%s var=%s blamed=%b"
                (Warning.kind_to_string w.Warning.kind)
                (match label with
                | Some l -> Velodrome_trace.Names.label_name names l
                | None -> "-")
                (match w.Warning.var with
                | Some v -> Velodrome_trace.Names.var_name names v
                | None -> "-")
                w.Warning.blamed))
  |> List.sort compare

let assert_filter_differential what program st =
  let names = program.Ast.names in
  let proved, suppress_var = Statics.filter_predicates st in
  let config = { Run.default_config with policy = Run.Random 11 } in
  List.iter
    (fun (bname, mk) ->
      let plain =
        (Run.run ~config program [ mk () ]).Run.warnings
      in
      let filtered =
        (Run.run ~config program
           [ Filters.static_atomic ~proved ~suppress_var (mk ()) ])
          .Run.warnings
      in
      check
        Alcotest.(list string)
        (Printf.sprintf "%s/%s warnings unchanged outside proved blocks" what
           bname)
        (projected st names plain)
        (projected st names filtered))
    (six_backends names)

let test_filter_differential_workloads () =
  List.iter
    (fun w ->
      let program = w.Workload.build Workload.Small in
      assert_filter_differential w.Workload.name program
        (Statics.analyze program))
    Workload.all

let prop_filter_differential_generated =
  QCheck.Test.make ~count:60
    ~name:"filter differential: six back-ends on generated programs"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = generate seed in
      assert_filter_differential
        (Printf.sprintf "seed %d" seed)
        p (Statics.analyze p);
      true)

let suite =
  ( "statics",
    [
      Alcotest.test_case "cfg shapes" `Quick test_cfg_shapes;
      Alcotest.test_case "cfg loop back edge" `Quick test_cfg_loop_backedge;
      Alcotest.test_case "lockset must" `Quick test_lockset_must;
      Alcotest.test_case "lockset join drops" `Quick test_lockset_join_drops;
      Alcotest.test_case "mhp" `Quick test_mhp;
      Alcotest.test_case "races pairwise-free" `Quick
        test_races_pairwise_free;
      Alcotest.test_case "races pairs" `Quick test_races_pairs;
      Alcotest.test_case "races ignore volatile" `Quick
        test_races_ignore_volatile;
      Alcotest.test_case "mover classes" `Quick test_mover_classes;
      Alcotest.test_case "mover thread-local" `Quick test_mover_thread_local;
      Alcotest.test_case "mover race-free" `Quick test_mover_race_free;
      Alcotest.test_case "mover per-site" `Quick test_mover_per_site;
      Alcotest.test_case "mover lock ops" `Quick test_mover_lock_ops;
      Alcotest.test_case "reduce proved" `Quick test_reduce_proved;
      Alcotest.test_case "reduce unknown" `Quick test_reduce_unknown;
      Alcotest.test_case "reduce commit point" `Quick
        test_reduce_single_non_mover;
      Alcotest.test_case "reduce edge cases" `Quick test_reduce_edge_cases;
      Alcotest.test_case "txgraph verdicts" `Quick test_txgraph_verdicts;
      Alcotest.test_case "txgraph snapshot patterns" `Quick
        test_txgraph_snapshot_patterns;
      Alcotest.test_case "progen snapshot family" `Quick
        test_progen_snapshot_family;
      Alcotest.test_case "values arithmetic" `Quick test_values_arith;
      Alcotest.test_case "values widening terminates" `Quick
        test_values_widening_terminates;
      Alcotest.test_case "values tid dispatch" `Quick test_values_tid_dispatch;
      Alcotest.test_case "dispatch verdict flip" `Quick test_dispatch_flip;
      Alcotest.test_case "progen dispatch family" `Quick
        test_progen_dispatch_family;
      Alcotest.test_case "reduce while acquire/release" `Quick
        test_reduce_while_acquire_release;
      Alcotest.test_case "workloads analyze" `Quick test_workloads_analyze;
      Alcotest.test_case "handoff precision" `Quick test_handoff_precision;
      QCheck_alcotest.to_alcotest prop_generated_wellformed;
      QCheck_alcotest.to_alcotest prop_gate_generated;
      Alcotest.test_case "gate: workloads" `Quick test_gate_workloads;
      Alcotest.test_case "filter differential: workloads" `Quick
        test_filter_differential_workloads;
      QCheck_alcotest.to_alcotest prop_filter_differential_generated;
    ] )
