(** Transaction nodes and the happens-before graph (Sections 4.1–4.2, 5).

    The pool owns every node of the transactional happens-before graph and
    implements the three mechanisms the paper's prototype relies on:

    - {b Acyclicity via ancestor sets.} Each live node carries the set of
      live nodes with a path to it. Attempting to add an edge whose
      reversal is already implied is reported as a cycle {e without adding
      the edge}, so the graph stays acyclic at all times.
    - {b Reference-counting garbage collection.} Incoming edges to a node
      are only ever added by the thread executing that transaction, so a
      finished node with no incoming edges can never lie on a cycle and is
      collected immediately, cascading along its outgoing edges.
    - {b Slot recycling with stale-step detection.} Collected slots are
      reused; timestamps within a slot never restart, and each slot
      remembers the last timestamp in use when it was collected, so a step
      minted for an earlier incarnation resolves to ⊥ ({!resolve}).

    {b Representation.} Ancestor sets are {!Velodrome_util.Bitset}s
    indexed by slot, so membership is a word test and transitive-closure
    updates are word-parallel ORs. Each node also keeps the mirror
    descendant set; collecting a node clears its slot's bit-column by
    visiting exactly the nodes that carry it, never the whole live set.

    Edges carry the timestamps of the operations at their tail and head —
    the raw material for blame assignment — plus the operation that
    induced them, for error graphs. At most one edge is kept per ordered
    node pair; re-adding replaces the timestamps and the operation (the
    paper's [⊕] on steps). *)

open Velodrome_trace

type t
type node

type edge = {
  dst_slot : int;  (** slot of the edge's destination node *)
  mutable tail_ts : int;
  mutable head_ts : int;
  mutable diag_op : Op.t;  (** operation that induced the edge *)
  mutable diag_index : int;  (** event index of that operation *)
}

val create : unit -> t

val alloc : t -> tid:int -> label:int -> event:int -> node
(** A fresh (or recycled) live, inactive node with no edges. [label] is
    [-1] for unary/merged transactions; [tid]/[event] are diagnostic. *)

val set_active : t -> node -> bool -> unit
(** Mark the node as some thread's current transaction. Deactivating may
    collect the node immediately. *)

val sweep : t -> node -> unit
(** Collect the node now if it is inactive with no incoming edges. Engines
    call this after building a node that may have received no edges (e.g.
    a unary transaction whose predecessors were all ⊥). *)

val fresh_ts : node -> int
(** Next timestamp in this node; strictly increasing for the lifetime of
    the slot. *)

val step_of : node -> ts:int -> Step.t

val resolve : t -> Step.t -> node option
(** [None] for ⊥ and for stale steps (slot collected since the step was
    minted, even if since recycled). *)

val step_live : t -> Step.t -> bool
(** Whether {!resolve} would return a node — without allocating the
    option. The engine fast path pairs this with {!node_of_step}. *)

val node_of_step : t -> Step.t -> node
(** The node a step belongs to. Only meaningful after {!step_live}
    returned [true] with no pool mutation in between. *)

val slot : node -> int

val is_live : node -> bool

val is_active : node -> bool
(** Whether the node is currently some thread's open transaction. Merge
    must never pick an active node as representative: the unary operation
    would be absorbed into a transaction that can still perform
    conflicting operations, turning future cycle edges into self-edges
    and losing completeness. *)

val diag_tid : node -> int
val diag_label : node -> int
val diag_event : node -> int

val happens_before_or_eq : t -> node -> node -> bool
(** Non-strict: equal nodes, or a path exists. Used by [merge]. *)

val add_edge :
  t ->
  src:node ->
  src_ts:int ->
  dst:node ->
  dst_ts:int ->
  op:Op.t ->
  index:int ->
  [ `Ok | `Self | `Cycle ]
(** Add [src -> dst], induced by operation [op] at event [index].
    [`Self] when the nodes coincide (filtered, like the paper's ⊕).
    [`Cycle] when the edge would close a cycle, which costs one bitset
    test and allocates nothing; the edge is not added, and
    [find_path t ~src:dst ~dst:src] finds the path [dst ⇒* src] it would
    close. *)

(** {2 Cycle paths}

    {!find_path} leaves the path it finds in buffers the pool owns, valid
    until its next call; reading them allocates nothing, so a caller that
    has already reported an equivalent cycle can drop this one for
    free. *)

val find_path : t -> src:node -> dst:node -> bool
(** The path from [src] to [dst ≠ src] that a depth-first search along
    live out-edges, in insertion order, would find; [false] when there is
    none. It enters only [dst]'s ancestors, so it walks straight down the
    path and never backtracks. *)

val path_length : t -> int
(** Number of edges on the path (at least 1). *)

val path_node : t -> int -> node
(** [path_node t i] for [0 <= i <= path_length t]: node [0] is the
    path's start, node [path_length t] its end. *)

val path_edge : t -> int -> edge
(** [path_edge t i] for [0 <= i < path_length t]: the live edge from
    [path_node t i] to [path_node t (i + 1)]. *)

val closing_tail_ts : t -> int
val closing_head_ts : t -> int
(** The [src_ts] and [dst_ts] of the last edge {!add_edge} rejected. *)

val live_count : t -> int
val allocated : t -> int
val max_alive : t -> int

val clear_work : t -> int
(** Cumulative count of nodes visited while clearing ancestor bit-columns
    during collection. Freeing a node must cost O(its descendants), not
    O(live nodes); the regression test pins this down. *)

val check_no_live : t -> (unit, int) result
(** [Ok ()] if every node has been collected; [Error k] with the number of
    survivors otherwise. Used by tests: after a trace whose transactions
    all finish cycle-free, the GC must have emptied the graph. *)

(** {2 Introspection for tests}

    Structural views of the live graph, for differential checks of the
    bitset-ancestor representation against reference graph algorithms. *)

val live_slots : t -> int list
(** Slots of live nodes, ascending. *)

val node_of_slot : t -> int -> node option
(** The live node at a slot, if any. *)

val out_slots : node -> int list
(** Destination slots of the node's out-edges, in insertion order. *)

val ancestor_slots : node -> int list
(** The ancestor set as a sorted slot list. *)

val descendant_slots : node -> int list
(** The descendant set as a sorted slot list. *)
