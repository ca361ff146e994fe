open Velodrome_trace
open Velodrome_core
open Helpers

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- Step ----------------------------------------------------------------- *)

let test_step_pack_roundtrip () =
  let s = Step.make ~slot:123 ~ts:456789 in
  check int "slot" 123 (Step.slot s);
  check int "ts" 456789 (Step.ts s);
  check bool "not bottom" false (Step.is_bottom s);
  check bool "bottom" true (Step.is_bottom Step.bottom)

let test_step_bounds () =
  Alcotest.check_raises "slot too big"
    (Invalid_argument "Step.make: slot range") (fun () ->
      ignore (Step.make ~slot:Step.max_slots ~ts:0));
  Alcotest.check_raises "negative ts" (Invalid_argument "Step.make: ts range")
    (fun () -> ignore (Step.make ~slot:0 ~ts:(-1)))

let test_step_extremes () =
  let s = Step.make ~slot:(Step.max_slots - 1) ~ts:(Step.max_ts - 1) in
  check int "max slot" (Step.max_slots - 1) (Step.slot s);
  check int "max ts" (Step.max_ts - 1) (Step.ts s)

(* --- Pool ----------------------------------------------------------------- *)

(* The pool tests look only at the graph, not at the operation an edge
   records. *)
let add_edge p ~src ~src_ts ~dst ~dst_ts =
  Pool.add_edge p ~src ~src_ts ~dst ~dst_ts ~op:(wr t0 x) ~index:0

let test_pool_stale_step_detection () =
  let p = Pool.create () in
  let n = Pool.alloc p ~tid:0 ~label:0 ~event:0 in
  Pool.set_active p n true;
  let ts = Pool.fresh_ts n in
  let s = Pool.step_of n ~ts in
  check bool "resolves while live" true (Pool.resolve p s <> None);
  Pool.set_active p n false;
  (* No incoming edges: collected immediately. *)
  check bool "collected" false (Pool.is_live n);
  check bool "stale step is bottom" true (Pool.resolve p s = None);
  (* Recycle the slot; the old step must remain stale. *)
  let n2 = Pool.alloc p ~tid:1 ~label:1 ~event:1 in
  check int "slot recycled" (Pool.slot n) (Pool.slot n2);
  check bool "old step still stale" true (Pool.resolve p s = None);
  let s2 = Pool.step_of n2 ~ts:(Pool.fresh_ts n2) in
  check bool "new step resolves" true (Pool.resolve p s2 <> None)

let test_pool_refcount_keeps_alive () =
  let p = Pool.create () in
  let a = Pool.alloc p ~tid:0 ~label:0 ~event:0 in
  let b = Pool.alloc p ~tid:1 ~label:1 ~event:1 in
  Pool.set_active p a true;
  Pool.set_active p b true;
  let tsa = Pool.fresh_ts a in
  let tsb = Pool.fresh_ts b in
  (match add_edge p ~src:a ~src_ts:tsa ~dst:b ~dst_ts:tsb with
  | `Ok -> ()
  | _ -> Alcotest.fail "edge expected to succeed");
  (* b has an incoming edge; finishing b keeps it alive until a dies. *)
  Pool.set_active p b false;
  check bool "b kept by refcount" true (Pool.is_live b);
  Pool.set_active p a false;
  check bool "a collected" false (Pool.is_live a);
  check bool "cascade collected b" false (Pool.is_live b);
  check int "nothing live" 0 (Pool.live_count p)

let test_pool_cycle_detected_and_rejected () =
  let p = Pool.create () in
  let a = Pool.alloc p ~tid:0 ~label:0 ~event:0 in
  let b = Pool.alloc p ~tid:1 ~label:1 ~event:1 in
  Pool.set_active p a true;
  Pool.set_active p b true;
  let e1 = add_edge p ~src:a ~src_ts:1 ~dst:b ~dst_ts:2 in
  check bool "first edge ok" true (e1 = `Ok);
  (match add_edge p ~src:b ~src_ts:3 ~dst:a ~dst_ts:4 with
  | `Cycle ->
    check bool "path found" true (Pool.find_path p ~src:a ~dst:b);
    check int "path is the single edge" 1 (Pool.path_length p);
    check int "closing tail" 3 (Pool.closing_tail_ts p);
    check int "closing head" 4 (Pool.closing_head_ts p)
  | _ -> Alcotest.fail "expected cycle");
  (* The cycle edge must not have been added: adding a -> b again is fine
     and the graph stays acyclic. *)
  check bool "still acyclic" true
    (add_edge p ~src:a ~src_ts:5 ~dst:b ~dst_ts:6 = `Ok)

let test_pool_transitive_cycle () =
  let p = Pool.create () in
  let a = Pool.alloc p ~tid:0 ~label:0 ~event:0 in
  let b = Pool.alloc p ~tid:1 ~label:1 ~event:1 in
  let c = Pool.alloc p ~tid:2 ~label:2 ~event:2 in
  List.iter (fun n -> Pool.set_active p n true) [ a; b; c ];
  ignore (add_edge p ~src:a ~src_ts:1 ~dst:b ~dst_ts:1);
  ignore (add_edge p ~src:b ~src_ts:2 ~dst:c ~dst_ts:1);
  match add_edge p ~src:c ~src_ts:2 ~dst:a ~dst_ts:2 with
  | `Cycle ->
    check bool "path found" true (Pool.find_path p ~src:a ~dst:c);
    check int "two-edge path" 2 (Pool.path_length p)
  | _ -> Alcotest.fail "expected transitive cycle"

let test_pool_self_edge_filtered () =
  let p = Pool.create () in
  let a = Pool.alloc p ~tid:0 ~label:0 ~event:0 in
  Pool.set_active p a true;
  check bool "self edge" true
    (add_edge p ~src:a ~src_ts:1 ~dst:a ~dst_ts:2 = `Self)

(* --- Engine on concrete traces ------------------------------------------- *)

let rmw_violation =
  Trace.of_ops [ bg t0 l0; rd t0 x; wr t1 x; wr t0 x; en t0 ]

let rmw_benign = Trace.of_ops [ bg t0 l0; rd t0 x; wr t1 y; wr t0 x; en t0 ]

let test_engine_detects_rmw () =
  let eng = run_engine rmw_violation in
  check bool "error" true (Engine.has_error eng);
  check int "first error at the closing write" 3
    (Option.get (Engine.first_error_index eng));
  match Engine.warnings eng with
  | [ w ] ->
    check bool "blamed" true w.Velodrome_analysis.Warning.blamed;
    check bool "label is l0" true
      (w.Velodrome_analysis.Warning.label = Some l0)
  | ws -> Alcotest.failf "expected exactly one warning, got %d" (List.length ws)

let test_engine_benign () =
  let eng = run_engine rmw_benign in
  check bool "no error" false (Engine.has_error eng);
  check int "no warnings" 0 (List.length (Engine.warnings eng))

let test_engine_locked_rmw_clean () =
  let tr =
    Trace.of_ops
      [
        bg t0 l0; acq t0 m; rd t0 x; wr t0 x; rel t0 m; en t0;
        bg t1 l0; acq t1 m; rd t1 x; wr t1 x; rel t1 m; en t1;
      ]
  in
  check bool "no error" false (Engine.has_error (run_engine tr))

(* The volatile hand-off pattern from Section 2 that defeats the Atomizer:
   serializable, and Velodrome must stay silent. Thread 0 increments x
   inside an atomic block, then passes the baton via b; thread 1 spins on
   b (reading it repeatedly), then increments x in its own atomic block. *)
let test_engine_baton_pass_clean () =
  let b = z in
  let tr =
    Trace.of_ops
      [
        rd t1 b; (* spin: not yet our turn *)
        bg t0 l0; rd t0 x; wr t0 x; wr t0 b; en t0;
        rd t1 b; (* spin observes the baton *)
        bg t1 l1; rd t1 x; wr t1 x; wr t1 b; en t1;
        rd t0 b;
      ]
  in
  check bool "well-formed" true (Trace.is_well_formed tr);
  check bool "oracle agrees serializable" true
    (Velodrome_oracle.Oracle.serializable tr);
  check bool "velodrome stays silent" false (Engine.has_error (run_engine tr))

let test_engine_nested_blocks () =
  (* Nested atomic blocks: the cycle refutes outer blocks p, q but not the
     innermost serial block r (the paper's nesting example). *)
  let p = l0 and q = l1 and r = l2 in
  let tr =
    Trace.of_ops
      [
        bg t0 p;
        bg t0 q;
        rd t0 x;  (* root operation *)
        wr t1 x;  (* interposed conflicting write *)
        bg t0 r;
        wr t0 x;  (* target operation: closes the cycle inside r *)
        en t0;
        en t0;
        en t0;
      ]
  in
  let eng = run_engine tr in
  check bool "error" true (Engine.has_error eng);
  match Engine.warnings eng with
  | [ w ] ->
    check bool "blamed" true w.Velodrome_analysis.Warning.blamed;
    check bool "outermost refuted label is p" true
      (w.Velodrome_analysis.Warning.label = Some p);
    let msg = Velodrome_analysis.Warning.message w in
    let contains needle =
      let nl = String.length needle and hl = String.length msg in
      let rec go i =
        i + nl <= hl && (String.sub msg i nl = needle || go (i + 1))
      in
      go 0
    in
    check bool "q also refuted" true (contains "L1");
    check bool "r not refuted" false (contains "L2")
  | ws -> Alcotest.failf "expected one warning, got %d" (List.length ws)

let test_engine_gc_empties () =
  let tr = Gen.run (Velodrome_util.Rng.create 17) Gen.default in
  let eng = run_engine tr in
  (* All transactions closed (close_trailing) and the graph acyclic, so
     reference counting must have collected everything. *)
  check int "no live nodes at end" 0 (Engine.nodes_live eng)

let test_engine_merge_reduces_allocation () =
  (* A long run of unmergeable unary operations: without merge each one
     allocates; with merge only program-order chains remain. *)
  let ops =
    List.concat_map (fun _ -> [ wr t0 x; rd t1 x ]) (List.init 200 Fun.id)
  in
  let tr = Trace.of_ops ops in
  let with_merge = run_engine tr in
  let without =
    run_engine ~config:{ Engine.merge = false } tr
  in
  check bool "merge allocates fewer nodes" true
    (Engine.nodes_allocated with_merge < Engine.nodes_allocated without);
  check bool "verdicts agree" (Engine.has_error without)
    (Engine.has_error with_merge)

let test_intro_cycle_blames_A () =
  (* The introduction's A => B' => C' => A cycle; blame must land on A
     (label l0), the only non-self-serializable transaction. *)
  let tr =
    Trace.of_ops
      [
        acq t0 m;
        bg t2 l2; rd t2 x; wr t2 z; en t2;
        bg t0 l0; rel t0 m; wr t0 z;
        bg t1 l1; acq t1 m; wr t1 y; en t1;
        bg t2 l2; rd t2 y; wr t2 x; en t2;
        rd t0 x;
        en t0;
      ]
  in
  let eng = run_engine tr in
  check bool "error" true (Engine.has_error eng);
  match Engine.warnings eng with
  | w :: _ ->
    check bool "blamed" true w.Velodrome_analysis.Warning.blamed;
    check bool "label A (l0)" true (w.Velodrome_analysis.Warning.label = Some l0)
  | [] -> Alcotest.fail "expected warning"

(* --- Merge semantics (Figure 4), observed through allocation counts ------- *)

let test_merge_bottom_allocates_nothing () =
  (* All predecessors ⊥: no node is ever created for unary operations. *)
  let tr = Trace.of_ops [ rd t0 x; rd t1 x; rd t0 y ] in
  let eng = run_engine tr in
  check int "no nodes" 0 (Engine.nodes_allocated eng)

let test_merge_collected_predecessor_is_bottom () =
  (* W(x) points at a transaction that the reference-counting GC already
     collected (it finished with no incoming edges), so its step reads as
     ⊥ and the unary read allocates nothing. *)
  let tr = Trace.of_ops [ bg t0 l0; wr t0 x; en t0; rd t1 x ] in
  let eng = run_engine tr in
  check int "only the transaction's node" 1 (Engine.nodes_allocated eng);
  check int "and it was collected" 0 (Engine.nodes_live eng)

(* A finished transaction pinned alive by an in-edge from a still-running
   one: the shape needed to watch merge's representative case. Builds two
   unrelated pinned transactions A (wrote x) and B (wrote w) on separate
   threads, kept alive by the open transactions C1 and C2. *)
let t3 = Ids.Tid.of_int 3
let w = Ids.Var.of_int 9

let pinned_scenario () =
  [
    bg t0 l0; wr t0 y;                 (* C1 open, writes y *)
    bg t1 l1; wr t1 z;                 (* C2 open, writes z *)
    bg t2 l2; rd t2 y; wr t2 x; en t2; (* A: C1 ⇒ A, writes x; alive *)
    bg t3 l2; rd t3 z; Op.Write (t3, w); en t3; (* B: C2 ⇒ B; alive *)
  ]

let test_merge_reuses_live_representative () =
  (* The unary read of x merges into the finished-but-alive A instead of
     allocating a node (the paper's C'-merge). A fresh thread does the
     read, so its L is ⊥. *)
  let tr =
    Trace.of_ops (pinned_scenario () @ [ Op.Read (Ids.Tid.of_int 4, x) ])
  in
  let eng = run_engine tr in
  check int "no node for the merged read" 4 (Engine.nodes_allocated eng)

let test_merge_incomparable_allocates_fresh () =
  (* L(t4) ends up at A; the read of w has W(w) = B; A and B are
     unrelated, both finished and alive: a fresh node must join them. *)
  let t4 = Ids.Tid.of_int 4 in
  let tr =
    Trace.of_ops
      (pinned_scenario () @ [ Op.Read (t4, x); Op.Read (t4, w) ])
  in
  let eng = run_engine tr in
  check int "fresh merge node allocated" 5 (Engine.nodes_allocated eng)

let test_merge_never_absorbs_into_active () =
  (* The refinement DESIGN.md documents: R(x,t0) belongs to a running
     transaction, so the unary write must NOT be merged into it — and the
     violation must be caught when t0 writes. *)
  let tr = Trace.of_ops [ bg t0 l0; rd t0 x; wr t1 x; wr t0 x; en t0 ] in
  let eng = run_engine tr in
  check bool "violation caught" true (Engine.has_error eng);
  check bool "unary write got its own node" true
    (Engine.nodes_allocated eng >= 2)

(* The paper's Section 4.3 impossibility example: a non-serializable trace
   in which every transaction is self-serializable, so no single
   transaction can be blamed — the warning must be unblamed. *)
let test_unblameable_cycle_reported_unblamed () =
  let tr =
    Trace.of_ops
      [
        bg t0 l0; bg t1 l1; wr t0 x; wr t1 y; rd t0 y; rd t1 x; wr t0 z;
        en t0; en t1;
      ]
  in
  let eng = run_engine tr in
  check bool "cycle found" true (Engine.has_error eng);
  match Engine.warnings eng with
  | w :: _ ->
    check bool "reported without blame" false
      w.Velodrome_analysis.Warning.blamed
  | [] -> Alcotest.fail "expected a warning"

(* --- Differential properties ---------------------------------------------- *)

let verdict_engine tr = Engine.has_error (run_engine tr)

let verdict_engine_nomerge tr =
  Engine.has_error
    (run_engine ~config:{ Engine.merge = false } tr)

let verdict_basic tr = Basic.has_error (run_basic tr)

let verdict_basic_nogc tr =
  Basic.has_error (run_basic ~config:{ Basic.gc = false } tr)

let prop_engine_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"engine = conflict-graph oracle"
    (trace_arbitrary Gen.default) (fun tr ->
      verdict_engine tr = not (Velodrome_oracle.Oracle.serializable tr))

let prop_engine_matches_oracle_dense =
  QCheck.Test.make ~count:300
    ~name:"engine = oracle (dense contention)"
    (trace_arbitrary
       {
         Gen.default with
         threads = 4;
         vars = 2;
         locks = 1;
         steps = 60;
         max_depth = 3;
       })
    (fun tr ->
      verdict_engine tr = not (Velodrome_oracle.Oracle.serializable tr))

let prop_engine_matches_basic =
  QCheck.Test.make ~count:400 ~name:"optimized engine = basic engine"
    (trace_arbitrary Gen.default) (fun tr ->
      verdict_engine tr = verdict_basic tr)

let prop_first_error_index_agrees =
  QCheck.Test.make ~count:400
    ~name:"first violation index agrees across engines"
    (trace_arbitrary Gen.default) (fun tr ->
      let e = run_engine tr and b = run_basic tr in
      Engine.first_error_index e = Basic.first_error_index b)

let prop_merge_ablation_equivalent =
  QCheck.Test.make ~count:300 ~name:"merge on/off verdicts agree"
    (trace_arbitrary Gen.default) (fun tr ->
      verdict_engine tr = verdict_engine_nomerge tr)

let prop_gc_ablation_equivalent =
  QCheck.Test.make ~count:300 ~name:"basic gc on/off verdicts agree"
    (trace_arbitrary Gen.default) (fun tr ->
      verdict_basic tr = verdict_basic_nogc tr)

let prop_engine_matches_swaps_small =
  QCheck.Test.make ~count:300
    ~name:"engine = literal swap exploration (small traces)"
    (trace_arbitrary Gen.small) (fun tr ->
      match Velodrome_oracle.Oracle.serializable_by_swaps ~max_ops:9 tr with
      | None -> QCheck.assume_fail ()
      | Some s -> verdict_engine tr = not s)

let prop_gc_collects_everything =
  QCheck.Test.make ~count:300 ~name:"gc leaves no live node at end of trace"
    (trace_arbitrary Gen.default) (fun tr ->
      Engine.nodes_live (run_engine tr) = 0)

(* The online engine must fire at exactly the first event whose prefix is
   non-serializable — detection is neither early (soundness) nor late
   (completeness at event granularity). *)
let prop_first_error_is_minimal_violating_prefix =
  QCheck.Test.make ~count:200
    ~name:"first error index = length of minimal non-serializable prefix"
    (trace_arbitrary { Gen.default with steps = 25 })
    (fun tr ->
      let eng = run_engine tr in
      let ops = Trace.ops tr in
      let prefix_serializable k =
        Velodrome_oracle.Oracle.serializable
          (Trace.of_array (Array.sub ops 0 k))
      in
      match Engine.first_error_index eng with
      | None -> prefix_serializable (Array.length ops)
      | Some i ->
        (not (prefix_serializable (i + 1))) && prefix_serializable i)

let prop_blamed_not_self_serializable =
  QCheck.Test.make ~count:500
    ~name:"blamed transactions are never self-serializable (small traces)"
    (trace_arbitrary { Gen.small with steps = 9 })
    (fun tr ->
      let eng = run_engine tr in
      let blamed_warnings =
        List.filter
          (fun w -> w.Velodrome_analysis.Warning.blamed)
          (Engine.warnings eng)
      in
      (* For each blamed warning, find a transaction with that label in the
         segmentation and check non-self-serializability of at least one
         instance (several transactions may share the label; blame applies
         to the one executing at the violation, so we accept if any
         instance is non-self-serializable). *)
      List.for_all
        (fun w ->
          match w.Velodrome_analysis.Warning.label with
          | None -> true
          | Some l ->
            let seg = Txn.segment tr in
            let instances =
              Array.to_list seg.Txn.txns
              |> List.filter (fun tx -> tx.Txn.label = Some l)
            in
            List.exists
              (fun tx ->
                match
                  Velodrome_oracle.Oracle.self_serializable_by_swaps tr
                    ~txn:tx.Txn.id
                with
                | Some false -> true
                | Some true -> false
                | None -> true)
              instances)
        blamed_warnings)

(* Subsequence projection (the paper's §6 argument for uninstrumented
   libraries): dropping events can only lose violations, never invent
   them. The thread-local filter is exactly such a projection. *)
let prop_filtered_stream_never_adds_errors =
  QCheck.Test.make ~count:300
    ~name:"thread-local filtering never invents violations"
    (trace_arbitrary Gen.default) (fun tr ->
      let names = Names.create () in
      let full = Velodrome_core.Engine.create names in
      let filtered_probe = Velodrome_core.Engine.create names in
      let module Probe = struct
        type t = unit

        let name = "probe"
        let create _ = ()
        let on_event () e = Velodrome_core.Engine.on_event filtered_probe e
        let pause_hint _ _ = false
        let finish _ = ()
        let warnings _ = []
      end in
      let filtered =
        Velodrome_analysis.Filters.thread_local
          (Velodrome_analysis.Backend.make (module Probe) names)
      in
      List.iteri
        (fun index op ->
          let ev = Event.make ~index op in
          Velodrome_core.Engine.on_event full ev;
          Velodrome_analysis.Backend.on_event filtered ev)
        (Trace.to_list tr);
      (* filtered error ⇒ full error (the converse can fail: that is the
         documented slight unsoundness). *)
      (not (Velodrome_core.Engine.has_error filtered_probe))
      || Velodrome_core.Engine.has_error full)

(* A large synthetic run: the engine must stay linear-ish and the GC must
   keep the live set tiny even across hundreds of thousands of events. *)
let test_engine_stress () =
  let cfg =
    {
      Gen.default with
      threads = 6;
      vars = 12;
      locks = 4;
      labels = 8;
      steps = 200_000;
    }
  in
  let tr = Gen.run (Velodrome_util.Rng.create 2024) cfg in
  let t0 = Sys.time () in
  let eng = run_engine ~config:{ Engine.merge = true } tr in
  let elapsed = Sys.time () -. t0 in
  check bool "bounded live nodes" true (Engine.nodes_max_alive eng <= 128);
  check bool "all collected at end" true (Engine.nodes_live eng = 0);
  check bool
    (Printf.sprintf "throughput sane (%.2fs for %d events)" elapsed
       (Trace.length tr))
    true (elapsed < 30.0)

(* --- Pool free cost (bitset column clear) ---------------------------------- *)

(* Freeing a node must visit exactly its descendants — clearing its slot's
   bit-column — never the whole live set. Measured via the pool's
   clear_work counter with k unrelated live nodes in the background. *)
let clear_work_of_free k =
  let p = Pool.create () in
  for i = 0 to k - 1 do
    let n = Pool.alloc p ~tid:0 ~label:i ~event:i in
    Pool.set_active p n true
  done;
  let a = Pool.alloc p ~tid:1 ~label:(-1) ~event:k in
  let b = Pool.alloc p ~tid:1 ~label:(-1) ~event:(k + 1) in
  Pool.set_active p a true;
  Pool.set_active p b true;
  (match add_edge p ~src:a ~src_ts:1 ~dst:b ~dst_ts:1 with
  | `Ok -> ()
  | _ -> Alcotest.fail "edge rejected");
  let w0 = Pool.clear_work p in
  (* a has no incoming edges, so deactivating collects it immediately *)
  Pool.set_active p a false;
  check bool "a collected" true (not (Pool.is_live a));
  Pool.clear_work p - w0

let test_pool_free_cost_flat () =
  let c100 = clear_work_of_free 100 in
  let c2000 = clear_work_of_free 2000 in
  check int "free cost = number of descendants" 1 c100;
  check int "free cost independent of live-node count" c100 c2000

(* --- Bitset ancestors = reference reachability ----------------------------- *)

(* Forward BFS over the pool's explicit edge lists: the reference
   implementation the bitset ancestor/descendant sets must agree with. *)
let bfs_reachable adj s =
  let visited = Hashtbl.create 16 in
  let q = Queue.create () in
  Queue.push s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if not (Hashtbl.mem visited v) then begin
          Hashtbl.replace visited v ();
          Queue.push v q
        end)
      (try List.assoc u adj with Not_found -> [])
  done;
  visited

let pool_matches_reference pool =
  let slots = Pool.live_slots pool in
  let node s =
    match Pool.node_of_slot pool s with
    | Some n -> n
    | None -> Alcotest.fail "live slot without node"
  in
  let adj = List.map (fun s -> (s, Pool.out_slots (node s))) slots in
  List.for_all
    (fun s ->
      let reach = bfs_reachable adj s in
      (* no stale bits for collected slots may survive *)
      List.for_all (fun d -> List.mem d slots)
        (Pool.descendant_slots (node s))
      && List.for_all (fun a -> List.mem a slots)
           (Pool.ancestor_slots (node s))
      && List.for_all
           (fun t ->
             let in_anc = List.mem s (Pool.ancestor_slots (node t)) in
             let in_desc = List.mem t (Pool.descendant_slots (node s)) in
             let reachable = t <> s && Hashtbl.mem reach t in
             in_anc = reachable && in_desc = reachable)
           slots)
    slots

let trace_matches_reference tr =
  let names = Names.create () in
  let eng =
    Engine.create ~config:{ Engine.merge = true } names
  in
  let pool = Engine.debug_pool eng in
  List.for_all
    (fun e ->
      Engine.on_event eng e;
      pool_matches_reference pool)
    (Event.of_ops (Trace.to_list tr))

let prop_bitset_ancestors_match_reachability =
  QCheck.Test.make ~count:300
    ~name:"bitset ancestors = BFS reachability after every event"
    (trace_arbitrary Gen.default) trace_matches_reference

(* Fewer vars and more threads force contention, merges and collection, so
   slots are recycled mid-trace and the check covers reused bit columns. *)
let prop_bitset_ancestors_match_reachability_dense =
  QCheck.Test.make ~count:100
    ~name:"bitset ancestors = BFS reachability (dense, recycled slots)"
    (trace_arbitrary
       { Gen.default with threads = 4; vars = 2; locks = 1; steps = 120 })
    trace_matches_reference

(* --- Guided cycle path = unguided DFS path -------------------------------- *)

(* The search the pool's ancestor-guided walk replaces: depth-first over
   every live out-edge in insertion order, with a visited set. Returns the
   slot path [src; ...; dst]. *)
let reference_path pool ~src ~dst =
  let visited = Hashtbl.create 16 in
  let rec go s =
    if Hashtbl.mem visited s then None
    else begin
      Hashtbl.replace visited s ();
      let node = Option.get (Pool.node_of_slot pool s) in
      let rec follow = function
        | [] -> None
        | d :: rest -> (
          if Pool.node_of_slot pool d = None then follow rest
          else if d = dst then Some [ s; d ]
          else
            match go d with Some p -> Some (s :: p) | None -> follow rest)
      in
      follow (Pool.out_slots node)
    end
  in
  go src

(* The pool's last path, as slots, provided it is a live path: every node
   live and every step an out-edge of the node before it. *)
let live_path pool =
  let k = Pool.path_length pool in
  let node = Pool.path_node pool in
  let step i =
    let a = node i and b = node (i + 1) in
    Pool.is_live a && Pool.is_live b
    && List.mem (Pool.slot b) (Pool.out_slots a)
    && (Pool.path_edge pool i).Pool.dst_slot = Pool.slot b
  in
  if k >= 1 && List.for_all step (List.init k Fun.id) then
    Some (List.init (k + 1) (fun i -> Pool.slot (node i)))
  else None

(* After every event: the last path the engine searched for a cycle the
   event found lies on a live path equal to the reference search's; and
   so does the path the pool finds for every ancestor/descendant pair,
   i.e. for every cycle an edge could close next. *)
let trace_paths_match_reference tr =
  let names = Names.create () in
  let eng = Engine.create ~config:{ Engine.merge = true } names in
  let pool = Engine.debug_pool eng in
  let matches () =
    match live_path pool with
    | None -> false
    | Some slots ->
      let src = List.hd slots in
      let dst = List.nth slots (List.length slots - 1) in
      reference_path pool ~src ~dst = Some slots
  in
  List.for_all
    (fun e ->
      let before = Engine.cycles_found eng in
      Engine.on_event eng e;
      (Engine.cycles_found eng = before || matches ())
      && List.for_all
           (fun b ->
             let nb = Option.get (Pool.node_of_slot pool b) in
             List.for_all
               (fun a ->
                 let na = Option.get (Pool.node_of_slot pool a) in
                 Pool.find_path pool ~src:na ~dst:nb && matches ())
               (Pool.ancestor_slots nb))
           (Pool.live_slots pool))
    (Event.of_ops (Trace.to_list tr))

let prop_guided_path_matches_dfs =
  QCheck.Test.make ~count:300 ~name:"guided cycle path = unguided DFS path"
    (trace_arbitrary Gen.default) trace_paths_match_reference

let prop_guided_path_matches_dfs_dense =
  QCheck.Test.make ~count:100
    ~name:"guided cycle path = unguided DFS path (dense, recycled slots)"
    (trace_arbitrary
       { Gen.default with threads = 4; vars = 2; locks = 1; steps = 120 })
    trace_paths_match_reference

(* --- Allocation-flat no-warning path --------------------------------------- *)

let bytes_for_replay events =
  let names = Names.create () in
  let eng =
    Engine.create ~config:{ Engine.merge = true } names
  in
  let b0 = Gc.allocated_bytes () in
  Array.iter (Engine.on_event eng) events;
  let b1 = Gc.allocated_bytes () in
  check int "benign trace" 0 (List.length (Engine.warnings eng));
  b1 -. b0

(* The no-warning path must not build closures, lists or report keys: the
   marginal allocation of the second half of a double-length benign trace
   stays within a small constant per event (recycled nodes still allocate
   fresh edge records and an option per transaction). *)
let test_engine_allocation_flat () =
  let iter_ops _ =
    [
      bg t0 l0; acq t0 m; wr t0 x; rd t0 y; rel t0 m; en t0;
      bg t1 l1; acq t1 m; rd t1 x; wr t1 z; rel t1 m; en t1;
    ]
  in
  let events n =
    Array.of_list (Event.of_ops (List.concat_map iter_ops (List.init n Fun.id)))
  in
  let e1 = events 2_000 and e2 = events 4_000 in
  let b1 = bytes_for_replay e1 in
  let b2 = bytes_for_replay e2 in
  let marginal =
    (b2 -. b1) /. float_of_int (Array.length e2 - Array.length e1)
  in
  check bool
    (Printf.sprintf "marginal bytes/event stays constant (%.1f)" marginal)
    true
    (marginal < 64.0)

(* --- Allocation-flat duplicate cycles ------------------------------------- *)

(* One blamed cycle, repeated: t0's block reads x, t1 overwrites x, and t0
   writes it back. Every repetition closes a cycle that blames l0 again,
   so only the first builds a warning; the rest must find the cycle's path
   and check its dedup key without allocating. *)
let test_engine_duplicate_cycles_allocate_nothing () =
  let iter_ops _ = [ bg t0 l0; rd t0 x; wr t1 x; wr t0 x; en t0 ] in
  let events n =
    Array.of_list (Event.of_ops (List.concat_map iter_ops (List.init n Fun.id)))
  in
  let replay events =
    let eng = Engine.create (Names.create ()) in
    let b0 = Gc.allocated_bytes () in
    Array.iter (Engine.on_event eng) events;
    let b1 = Gc.allocated_bytes () in
    check int "one cycle per repetition" (Array.length events / 5)
      (Engine.cycles_found eng);
    check int "one warning" 1 (List.length (Engine.warnings eng));
    b1 -. b0
  in
  let e1 = events 2_000 and e2 = events 4_000 in
  let b1 = replay e1 in
  let b2 = replay e2 in
  let marginal =
    (b2 -. b1) /. float_of_int (Array.length e2 - Array.length e1)
  in
  check bool
    (Printf.sprintf "marginal bytes/event of duplicate cycles (%.1f)" marginal)
    true (marginal < 16.0)

let suite =
  ( "core",
    [
      Alcotest.test_case "step pack roundtrip" `Quick test_step_pack_roundtrip;
      Alcotest.test_case "step bounds" `Quick test_step_bounds;
      Alcotest.test_case "step extremes" `Quick test_step_extremes;
      Alcotest.test_case "pool stale steps" `Quick test_pool_stale_step_detection;
      Alcotest.test_case "pool refcount" `Quick test_pool_refcount_keeps_alive;
      Alcotest.test_case "pool cycle rejected" `Quick
        test_pool_cycle_detected_and_rejected;
      Alcotest.test_case "pool transitive cycle" `Quick test_pool_transitive_cycle;
      Alcotest.test_case "pool self edge" `Quick test_pool_self_edge_filtered;
      Alcotest.test_case "engine detects rmw" `Quick test_engine_detects_rmw;
      Alcotest.test_case "engine benign" `Quick test_engine_benign;
      Alcotest.test_case "engine locked rmw" `Quick test_engine_locked_rmw_clean;
      Alcotest.test_case "engine baton pass" `Quick test_engine_baton_pass_clean;
      Alcotest.test_case "engine nested blocks" `Quick test_engine_nested_blocks;
      Alcotest.test_case "engine gc empties" `Quick test_engine_gc_empties;
      Alcotest.test_case "engine merge allocation" `Quick
        test_engine_merge_reduces_allocation;
      Alcotest.test_case "intro cycle blames A" `Quick test_intro_cycle_blames_A;
      Alcotest.test_case "merge: bottom" `Quick test_merge_bottom_allocates_nothing;
      Alcotest.test_case "merge: collected is bottom" `Quick
        test_merge_collected_predecessor_is_bottom;
      Alcotest.test_case "merge: live representative" `Quick
        test_merge_reuses_live_representative;
      Alcotest.test_case "merge: incomparable" `Quick
        test_merge_incomparable_allocates_fresh;
      Alcotest.test_case "merge: active excluded" `Quick
        test_merge_never_absorbs_into_active;
      Alcotest.test_case "unblameable cycle" `Quick
        test_unblameable_cycle_reported_unblamed;
      QCheck_alcotest.to_alcotest prop_engine_matches_oracle;
      QCheck_alcotest.to_alcotest prop_engine_matches_oracle_dense;
      QCheck_alcotest.to_alcotest prop_engine_matches_basic;
      QCheck_alcotest.to_alcotest prop_first_error_index_agrees;
      QCheck_alcotest.to_alcotest prop_merge_ablation_equivalent;
      QCheck_alcotest.to_alcotest prop_gc_ablation_equivalent;
      QCheck_alcotest.to_alcotest prop_engine_matches_swaps_small;
      QCheck_alcotest.to_alcotest prop_gc_collects_everything;
      QCheck_alcotest.to_alcotest prop_first_error_is_minimal_violating_prefix;
      QCheck_alcotest.to_alcotest prop_blamed_not_self_serializable;
      QCheck_alcotest.to_alcotest prop_filtered_stream_never_adds_errors;
      Alcotest.test_case "pool free cost flat" `Quick test_pool_free_cost_flat;
      QCheck_alcotest.to_alcotest prop_bitset_ancestors_match_reachability;
      QCheck_alcotest.to_alcotest prop_bitset_ancestors_match_reachability_dense;
      QCheck_alcotest.to_alcotest prop_guided_path_matches_dfs;
      QCheck_alcotest.to_alcotest prop_guided_path_matches_dfs_dense;
      Alcotest.test_case "engine allocation flat" `Quick
        test_engine_allocation_flat;
      Alcotest.test_case "duplicate cycles allocate nothing" `Quick
        test_engine_duplicate_cycles_allocate_nothing;
      Alcotest.test_case "engine stress" `Slow test_engine_stress;
    ] )
