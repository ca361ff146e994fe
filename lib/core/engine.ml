open Velodrome_trace
open Velodrome_trace.Ids
open Velodrome_analysis
open Velodrome_util

type config = { merge : bool }

let default_config = { merge = true }

(* The open-block stack lives in a pair of parallel int arrays (label,
   begin timestamp; index 0 = outermost) so Begin/End never cons. *)
type thread_state = {
  mutable cur : Pool.node option;
  mutable stk_labels : int array;
  mutable stk_ts : int array;
  mutable depth : int;
  mutable l : Step.t;
}

(* Per-variable last-read steps, keyed by thread id in a small pair of
   parallel arrays (thread counts are tiny; linear search beats hashing
   and never allocates on lookup). *)
type var_state = {
  mutable w : Step.t;
  mutable read_tids : int array;
  mutable read_steps : Step.t array;
  mutable nreads : int;
}

(* The cycle an event reports, copied out of the pool's path buffer as
   soon as it is found, since a later search of the same event overwrites
   that buffer. Node [i] is [Pool.path_node i]; [ops.(i)] induced the path
   edge from node [i] to node [i + 1]. The arrays only grow. *)
type chosen = {
  mutable found : int;  (** cycles detected by the current event *)
  mutable increasing : bool;
  mutable root_ts : int;
      (** the timestamp at which the current transaction's outgoing edge
          on the cycle leaves it: the root operation *)
  mutable len : int;  (** nodes on the cycle *)
  mutable slots : int array;
  mutable tids : int array;
  mutable labels : int array;
  mutable ops : Op.t array;
}

type t = {
  names : Names.t;
  config : config;
  pool : Pool.t;
  threads : thread_state Vec.t;  (** dense, indexed by interned tid *)
  locks : Step.t Vec.t;  (** dense, indexed by interned lock id *)
  vars : var_state Vec.t;  (** dense, indexed by interned var id *)
  mutable warnings_rev : Warning.t list;
  reported_labels : Bitset.t;  (** blamed labels already reported *)
  reported_sigs : (int, int array list) Hashtbl.t;
      (** node signatures [tid0; label0; tid1; ...] of the unblamed cycles
          already reported, bucketed by {!signature_hash} *)
  mutable cycles : int;
  mutable blamed : int;
  mutable first_error : int option;
  chosen : chosen;
      (** one event may reject several edges (e.g. a write conflicting with
          both the recorded reads and the recorded write); blame prefers
          the first increasing cycle among them, else the first one *)
  mutable mbuf : Step.t array;  (** merge scratch: live predecessor steps *)
  mutable mlen : int;
}

let analysis_name config =
  if config.merge then "velodrome" else "velodrome-nomerge"

let create ?(config = default_config) names =
  {
    names;
    config;
    pool = Pool.create ();
    threads = Vec.create ();
    locks = Vec.create ();
    vars = Vec.create ();
    warnings_rev = [];
    reported_labels = Bitset.create ();
    reported_sigs = Hashtbl.create 16;
    cycles = 0;
    blamed = 0;
    first_error = None;
    chosen =
      {
        found = 0;
        increasing = false;
        root_ts = 0;
        len = 0;
        slots = [||];
        tids = [||];
        labels = [||];
        ops = [||];
      };
    mbuf = Array.make 8 Step.bottom;
    mlen = 0;
  }

let fresh_thread () =
  {
    cur = None;
    stk_labels = Array.make 8 (-1);
    stk_ts = Array.make 8 0;
    depth = 0;
    l = Step.bottom;
  }

let thread t tid =
  let k = Tid.to_int tid in
  while Vec.length t.threads <= k do
    Vec.push t.threads (fresh_thread ())
  done;
  Vec.unsafe_get t.threads k

let fresh_var () =
  { w = Step.bottom; read_tids = [||]; read_steps = [||]; nreads = 0 }

let var_state t x =
  let k = Var.to_int x in
  while Vec.length t.vars <= k do
    Vec.push t.vars (fresh_var ())
  done;
  Vec.unsafe_get t.vars k

let lock_step t m =
  let k = Lock.to_int m in
  if k < Vec.length t.locks then Vec.unsafe_get t.locks k else Step.bottom

let set_lock_step t m s =
  let k = Lock.to_int m in
  while Vec.length t.locks <= k do
    Vec.push t.locks Step.bottom
  done;
  Vec.set t.locks k s

(* Record tid's last read of the variable; replaces in place, growing the
   arrays only the first time a thread touches the variable. *)
let set_read vs tid s =
  let rec find i =
    if i >= vs.nreads then -1
    else if Array.unsafe_get vs.read_tids i = tid then i
    else find (i + 1)
  in
  let i = find 0 in
  if i >= 0 then Array.unsafe_set vs.read_steps i s
  else begin
    if vs.nreads = Array.length vs.read_tids then begin
      let cap = max 4 (2 * vs.nreads) in
      let nt = Array.make cap (-1) in
      let ns = Array.make cap Step.bottom in
      Array.blit vs.read_tids 0 nt 0 vs.nreads;
      Array.blit vs.read_steps 0 ns 0 vs.nreads;
      vs.read_tids <- nt;
      vs.read_steps <- ns
    end;
    vs.read_tids.(vs.nreads) <- tid;
    vs.read_steps.(vs.nreads) <- s;
    vs.nreads <- vs.nreads + 1
  end

let stack_push st label ts =
  let cap = Array.length st.stk_labels in
  if st.depth = cap then begin
    let nl = Array.make (2 * cap) (-1) in
    let nt = Array.make (2 * cap) 0 in
    Array.blit st.stk_labels 0 nl 0 cap;
    Array.blit st.stk_ts 0 nt 0 cap;
    st.stk_labels <- nl;
    st.stk_ts <- nt
  end;
  Array.unsafe_set st.stk_labels st.depth label;
  Array.unsafe_set st.stk_ts st.depth ts;
  st.depth <- st.depth + 1

(* --- Error reporting --------------------------------------------------- *)

(* A cycle [v -> n1 -> ... -> u -> v] is increasing when every node other
   than v enters on a timestamp no later than it leaves on (Section 4.3).
   The pool's path runs v ⇒* u; the closing edge u -> v leaves u at
   [Pool.closing_tail_ts]. [into] is the path edge entering node [i]. *)
let rec increasing_from pool (into : Pool.edge) i =
  if i = Pool.path_length pool then into.head_ts <= Pool.closing_tail_ts pool
  else
    let out = Pool.path_edge pool i in
    into.head_ts <= out.tail_ts && increasing_from pool out (i + 1)

let choose c pool increasing =
  let k = Pool.path_length pool in
  if k + 1 > Array.length c.slots then begin
    let cap = 2 * (k + 1) in
    c.slots <- Array.make cap 0;
    c.tids <- Array.make cap 0;
    c.labels <- Array.make cap 0;
    c.ops <- Array.make cap (Pool.path_edge pool 0).Pool.diag_op
  end;
  c.increasing <- increasing;
  c.root_ts <- (Pool.path_edge pool 0).Pool.tail_ts;
  c.len <- k + 1;
  for i = 0 to k do
    let n = Pool.path_node pool i in
    Array.unsafe_set c.slots i (Pool.slot n);
    Array.unsafe_set c.tids i (Pool.diag_tid n);
    Array.unsafe_set c.labels i (Pool.diag_label n);
    if i < k then Array.unsafe_set c.ops i (Pool.path_edge pool i).Pool.diag_op
  done

(* Called for each cycle the event closes, the rejected edge being
   [src -> dst]. Only the event's chosen cycle matters, so once an
   increasing one is chosen the later ones need no path search; the path
   is copied only when it becomes the chosen one. The warning is decided
   once per event by [flush_cycle]. *)
let report_cycle t ~src ~dst =
  let c = t.chosen in
  if c.found = 0 || not c.increasing then begin
    (* The ancestor invariant guarantees a live path exists. *)
    if not (Pool.find_path t.pool ~src:dst ~dst:src) then assert false;
    let increasing = increasing_from t.pool (Pool.path_edge t.pool 0) 1 in
    if c.found = 0 || increasing then choose c t.pool increasing
  end;
  c.found <- c.found + 1

let rec signature_hash c i h =
  if i >= c.len then h
  else
    signature_hash c (i + 1)
      ((((h * 31) + Array.unsafe_get c.tids i) * 31)
      + Array.unsafe_get c.labels i)

let rec signature_matches c (s : int array) i =
  i >= c.len
  || Array.unsafe_get s (2 * i) = Array.unsafe_get c.tids i
     && Array.unsafe_get s ((2 * i) + 1) = Array.unsafe_get c.labels i
     && signature_matches c s (i + 1)

let rec signature_mem c = function
  | [] -> false
  | s :: rest ->
    (Array.length s = 2 * c.len && signature_matches c s 0)
    || signature_mem c rest

(* Record the chosen cycle's (tid, label) node signature; [false] when an
   unblamed cycle with that signature was already reported. Allocates only
   for a new signature. *)
let add_signature t =
  let c = t.chosen in
  let h = signature_hash c 0 c.len in
  let bucket =
    match Hashtbl.find t.reported_sigs h with
    | b -> b
    | exception Not_found -> []
  in
  if signature_mem c bucket then false
  else begin
    let s =
      Array.init (2 * c.len) (fun j ->
          if j land 1 = 0 then c.tids.(j / 2) else c.labels.(j / 2))
    in
    Hashtbl.replace t.reported_sigs h (s :: bucket);
    true
  end

(* An increasing cycle refutes every block on the current stack that
   contains both its root operation (at [root_ts]) and the target
   operation. A pseudo-block (label -1) wraps a unary transaction in
   no-merge mode; unary transactions are trivially self-serializable and
   never blamed. Begin timestamps grow with depth, so the refuted blocks
   are the labelled ones before the first block that began after the root
   operation. This is the stack index of the outermost one, searching from
   [i], or -1 when there is none. *)
let rec outermost_refuted st ~root_ts i =
  if i >= st.depth || Array.unsafe_get st.stk_ts i > root_ts then -1
  else if Array.unsafe_get st.stk_labels i >= 0 then i
  else outermost_refuted st ~root_ts (i + 1)

(* Build the warning for a new cycle: a compact snapshot now, the message
   and dot graph only when someone reads them. *)
let cycle_warning t st (e : Event.t) ~outer ~label =
  let c = t.chosen in
  let blamed = outer >= 0 in
  (* The outermost refuted block is the method we report (inner refuted
     blocks are mentioned; deeper, non-refuted blocks stay silent). *)
  let refuted =
    if not blamed then []
    else begin
      let acc = ref [] in
      for i = st.depth - 1 downto outer do
        let l = st.stk_labels.(i) in
        if l >= 0 && st.stk_ts.(i) <= c.root_ts then
          acc := Label.of_int l :: !acc
      done;
      !acc
    end
  in
  let n = c.len in
  let graph =
    {
      Error_graph.slots = Array.sub c.slots 0 n;
      tids = Array.sub c.tids 0 n;
      labels = Array.sub c.labels 0 n;
      (* Node 0, the rejected edge's destination, is the current
         transaction: the one blame refutes. *)
      blamed = (if blamed then 0 else -1);
      ops = Array.init n (fun i -> if i < n - 1 then c.ops.(i) else e.Event.op);
    }
  in
  let names = t.names in
  let label = if label >= 0 then Some (Label.of_int label) else None in
  let message =
    lazy
      (let verdict =
         if blamed then
           Printf.sprintf "not self-serializable (refuted blocks: %s)"
             (String.concat ", " (List.map (Names.label_name names) refuted))
         else "non-serializable trace (no single transaction blamed)"
       in
       Printf.sprintf "%s; cycle: %s" verdict
         (Format.asprintf "%a" (Error_graph.pp_summary names) graph))
  in
  let dot =
    lazy
      (let name =
         match label with Some l -> Names.label_name names l | None -> "cycle"
       in
       Error_graph.to_dot names ~name graph)
  in
  {
    Warning.analysis = analysis_name t.config;
    kind = Warning.Atomicity_violation;
    tid = Some (Op.tid e.Event.op);
    label;
    var = None;
    message;
    dot = None;
    graph = Some dot;
    index = e.Event.index;
    blamed;
    refuted;
  }

(* Decide the event's warning from its chosen cycle. A cycle whose dedup
   key — the blamed label, or the unblamed (tid, label) node signature —
   was already reported allocates nothing. *)
let flush_cycle t st (e : Event.t) =
  t.cycles <- t.cycles + 1;
  if t.first_error = None then t.first_error <- Some e.Event.index;
  let c = t.chosen in
  c.found <- 0;
  let outer =
    if c.increasing then outermost_refuted st ~root_ts:c.root_ts 0 else -1
  in
  let blamed = outer >= 0 in
  if blamed then t.blamed <- t.blamed + 1;
  (* Unblamed: attribute the report to the current outermost block so the
     user can find it, but mark it unblamed. *)
  let label =
    if blamed then st.stk_labels.(outer)
    else if st.depth > 0 then st.stk_labels.(0)
    else -1
  in
  let fresh =
    if blamed then Bitset.add t.reported_labels label else add_signature t
  in
  if fresh then
    t.warnings_rev <- cycle_warning t st e ~outer ~label :: t.warnings_rev

(* --- Edges -------------------------------------------------------------- *)

(* Add an edge from a recorded step to the current transaction's new step;
   report a cycle if one would form. Stale and ⊥ steps contribute
   nothing. *)
let edge_from t ~src ~dst ~dst_ts (e : Event.t) =
  if Pool.step_live t.pool src then
    let src_node = Pool.node_of_step t.pool src in
    match
      Pool.add_edge t.pool ~src:src_node ~src_ts:(Step.ts_unchecked src)
        ~dst ~dst_ts ~op:e.Event.op ~index:e.Event.index
    with
    | `Ok | `Self -> ()
    | `Cycle -> report_cycle t ~src:src_node ~dst

(* --- Merge (Figure 4) --------------------------------------------------- *)

(* The merge arguments accumulate in [t.mbuf] (already filtered to live
   steps), so no per-event list is built. *)
let merge_reset t = t.mlen <- 0

let merge_add t s =
  if Pool.step_live t.pool s then begin
    if t.mlen = Array.length t.mbuf then begin
      let nb = Array.make (2 * t.mlen) Step.bottom in
      Array.blit t.mbuf 0 nb 0 t.mlen;
      t.mbuf <- nb
    end;
    Array.unsafe_set t.mbuf t.mlen s;
    t.mlen <- t.mlen + 1
  end

let rec happens_after_all t nj i =
  i >= t.mlen
  || (Pool.happens_before_or_eq t.pool
        (Pool.node_of_step t.pool (Array.unsafe_get t.mbuf i))
        nj
     && happens_after_all t nj (i + 1))

(* A representative must already happen-after every argument AND be
   finished: an active transaction can still perform conflicting
   operations, and absorbing the unary op into it would turn the
   resulting cycle edges into self-edges. *)
let rec find_rep t j =
  if j >= t.mlen then -1
  else
    let nj = Pool.node_of_step t.pool (Array.unsafe_get t.mbuf j) in
    if (not (Pool.is_active nj)) && happens_after_all t nj 0 then j
    else find_rep t (j + 1)

let merge_finish t (e : Event.t) =
  if t.mlen = 0 then Step.bottom
  else begin
    let rep = find_rep t 0 in
    if rep >= 0 then t.mbuf.(rep)
    else begin
      let n =
        Pool.alloc t.pool
          ~tid:(Tid.to_int (Op.tid e.Event.op))
          ~label:(-1) ~event:e.Event.index
      in
      let ts = Pool.fresh_ts n in
      for i = 0 to t.mlen - 1 do
        let s = Array.unsafe_get t.mbuf i in
        match
          Pool.add_edge t.pool
            ~src:(Pool.node_of_step t.pool s)
            ~src_ts:(Step.ts_unchecked s) ~dst:n ~dst_ts:ts ~op:e.Event.op
            ~index:e.Event.index
        with
        | `Ok | `Self -> ()
        | `Cycle ->
          (* Impossible: [n] is fresh and has no outgoing edges. *)
          assert false
      done;
      Pool.sweep t.pool n;
      Pool.step_of n ~ts
    end
  end

(* [L(t)+1] for a thread outside any transaction: mint the next timestamp
   in whatever node its last step belongs to; ⊥ stays ⊥. *)
let l_plus_one t st =
  if Pool.step_live t.pool st.l then begin
    let n = Pool.node_of_step t.pool st.l in
    Pool.step_of n ~ts:(Pool.fresh_ts n)
  end
  else Step.bottom

(* --- Inside-transaction step -------------------------------------------- *)

let inside_step st n =
  let ts = Pool.fresh_ts n in
  st.l <- Pool.step_of n ~ts;
  ts

(* --- Naive outside handling (Figure 2's [INS OUTSIDE]) ------------------ *)

(* Wrap the operation in a fresh unary transaction: begin, op, end. Used
   when [config.merge] is off; Table 1's "Without Merge" columns. *)
let outside_naive t st (e : Event.t) body =
  let n =
    Pool.alloc t.pool
      ~tid:(Tid.to_int (Op.tid e.Event.op))
      ~label:(-1) ~event:e.Event.index
  in
  Pool.set_active t.pool n true;
  let ts0 = Pool.fresh_ts n in
  edge_from t ~src:st.l ~dst:n ~dst_ts:ts0 e;
  st.l <- Pool.step_of n ~ts:ts0;
  st.cur <- Some n;
  st.depth <- 0;
  stack_push st (-1) ts0;
  body n;
  let ts = Pool.fresh_ts n in
  st.l <- Pool.step_of n ~ts;
  st.cur <- None;
  st.depth <- 0;
  Pool.set_active t.pool n false

(* --- Event dispatch ------------------------------------------------------ *)

let do_acquire t st n (e : Event.t) m =
  let ts = inside_step st n in
  edge_from t ~src:(lock_step t m) ~dst:n ~dst_ts:ts e

let do_release t st n m =
  ignore (inside_step st n);
  set_lock_step t m st.l

let do_read t st n (e : Event.t) x =
  let vs = var_state t x in
  let ts = inside_step st n in
  edge_from t ~src:vs.w ~dst:n ~dst_ts:ts e;
  set_read vs (Tid.to_int (Op.tid e.Event.op)) st.l

let do_write t st n (e : Event.t) x =
  let vs = var_state t x in
  let ts = inside_step st n in
  for i = 0 to vs.nreads - 1 do
    edge_from t ~src:(Array.unsafe_get vs.read_steps i) ~dst:n ~dst_ts:ts e
  done;
  edge_from t ~src:vs.w ~dst:n ~dst_ts:ts e;
  vs.w <- st.l

let dispatch t st (e : Event.t) =
  let op = e.Event.op in
  match op with
  | Op.Begin (tid, l) -> (
    match st.cur with
    | None ->
      (* [INS2 ENTER] *)
      let n =
        Pool.alloc t.pool ~tid:(Tid.to_int tid) ~label:(Label.to_int l)
          ~event:e.Event.index
      in
      Pool.set_active t.pool n true;
      let ts = Pool.fresh_ts n in
      edge_from t ~src:st.l ~dst:n ~dst_ts:ts e;
      st.cur <- Some n;
      st.depth <- 0;
      stack_push st (Label.to_int l) ts;
      st.l <- Pool.step_of n ~ts
    | Some n ->
      (* [INS2 RE-ENTER]: same node; the L(t) edge is a self-edge. *)
      let ts = inside_step st n in
      stack_push st (Label.to_int l) ts)
  | Op.End _ -> (
    match st.cur with
    | Some n when st.depth > 0 ->
      ignore (inside_step st n);
      st.depth <- st.depth - 1;
      if st.depth = 0 then begin
        st.cur <- None;
        Pool.set_active t.pool n false
      end
    | _ ->
      (* Ill-formed stream ([End] without [Begin]); ignore, matching the
         well-formedness contract of {!Velodrome_trace.Trace.check}. *)
      ())
  | Op.Acquire (_, m) -> (
    match st.cur with
    | Some n -> do_acquire t st n e m
    | None ->
      if t.config.merge then begin
        (* [INS2 OUTSIDE ACQUIRE] *)
        merge_reset t;
        merge_add t st.l;
        merge_add t (lock_step t m);
        st.l <- merge_finish t e
      end
      else outside_naive t st e (fun n -> do_acquire t st n e m))
  | Op.Release (_, m) -> (
    match st.cur with
    | Some n -> do_release t st n m
    | None ->
      if t.config.merge then begin
        (* [INS2 OUTSIDE RELEASE] *)
        let s = l_plus_one t st in
        st.l <- s;
        set_lock_step t m s
      end
      else outside_naive t st e (fun n -> do_release t st n m))
  | Op.Read (tid, x) -> (
    match st.cur with
    | Some n -> do_read t st n e x
    | None ->
      if t.config.merge then begin
        (* [INS2 OUTSIDE READ] *)
        let vs = var_state t x in
        merge_reset t;
        merge_add t st.l;
        merge_add t vs.w;
        let s = merge_finish t e in
        st.l <- s;
        set_read vs (Tid.to_int tid) s
      end
      else outside_naive t st e (fun n -> do_read t st n e x))
  | Op.Write (_, x) -> (
    match st.cur with
    | Some n -> do_write t st n e x
    | None ->
      if t.config.merge then begin
        (* [INS2 OUTSIDE WRITE] *)
        let vs = var_state t x in
        merge_reset t;
        merge_add t st.l;
        merge_add t vs.w;
        for i = 0 to vs.nreads - 1 do
          merge_add t (Array.unsafe_get vs.read_steps i)
        done;
        let s = merge_finish t e in
        st.l <- s;
        vs.w <- s
      end
      else outside_naive t st e (fun n -> do_write t st n e x))

let on_event t (e : Event.t) =
  let st = thread t (Op.tid e.Event.op) in
  dispatch t st e;
  if t.chosen.found > 0 then flush_cycle t st e

let finish _ = ()

let warnings t = List.rev t.warnings_rev
let has_error t = t.cycles > 0
let cycles_found t = t.cycles
let blamed_count t = t.blamed
let first_error_index t = t.first_error
let nodes_allocated t = Pool.allocated t.pool
let nodes_max_alive t = Pool.max_alive t.pool
let nodes_live t = Pool.live_count t.pool
let debug_pool t = t.pool

let backend ?(config = default_config) () : (module Backend.S) =
  (module struct
    type nonrec t = t

    let name = analysis_name config
    let create names = create ~config names
    let on_event = on_event
    let pause_hint _ _ = false
    let finish = finish
    let warnings = warnings
  end)
