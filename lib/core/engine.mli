(** The Velodrome analysis — optimized semantics with blame assignment
    (Figure 4).

    The engine consumes the event stream and maintains the instrumentation
    state [(C, L, U, R, W, H)] over packed {!Step}s:

    - [C]: per thread, the stack of open atomic blocks [(label, begin
      timestamp)] plus the current transaction node — only the outermost
      [Begin] allocates a node;
    - [L]: per thread, the step of its last operation;
    - [U]: per lock, the step of the last release;
    - [R]: per variable and thread, the step of the last read;
    - [W]: per variable, the step of the last write;
    - [H]: the happens-before graph, owned by {!Pool}.

    An error is reported exactly when an edge would close a cycle — i.e.
    exactly when the observed prefix stops being conflict-serializable
    (Theorem 1). The offending edge is {e not} added, so the graph stays
    acyclic and reference counting keeps collecting garbage nodes; the
    analysis continues and can report further violations.

    {b Blame.} Edges carry head/tail timestamps. A detected cycle is
    {e increasing} when every node other than the current one has its
    incoming timestamp ≤ its outgoing timestamp; then the current
    transaction provably interleaves with conflicting operations and is
    not self-serializable, and every atomic block on the current stack
    containing both the root and target operations is refuted
    (Section 4.3). The warning carries the outermost refuted label.

    {b Merge.} With [config.merge] on (the default), operations outside
    any atomic block go through the [merge] function of Figure 4, which
    avoids allocating nodes for unary transactions whenever a
    representative predecessor exists. With it off, each such operation is
    wrapped in a fresh unary transaction — the naive [INS OUTSIDE] rule of
    Figure 2 — which is what the "Without Merge" columns of Table 1
    measure. Verdicts are identical either way; only allocation counts and
    speed differ. *)

open Velodrome_trace
open Velodrome_analysis

type config = {
  merge : bool;  (** Figure 4 outside rules (default) vs naive wrapping *)
}

val default_config : config

type t

val create : ?config:config -> Names.t -> t
val on_event : t -> Event.t -> unit
val finish : t -> unit

val warnings : t -> Warning.t list
(** Deduplicated: one warning per blamed label, and one per distinct
    unblamed cycle signature (the (tid, label) sequence of its nodes).

    Each warning carries a compact snapshot of its cycle; its message and
    its dot error graph ({!Warning.message}, {!Warning.graph}) are
    rendered from that snapshot on first read. The [dot] field is always
    [None]. A cycle whose key was already reported allocates nothing. *)

val has_error : t -> bool
(** Whether any cycle was detected — true iff the consumed trace is not
    conflict-serializable. *)

val cycles_found : t -> int
(** Total cycles detected, including ones deduplicated away. *)

val first_error_index : t -> int option
(** Event index of the first detected cycle. A correct engine detects the
    violation at exactly the event that makes the prefix non-serializable,
    so this is directly comparable across engine variants. *)

val blamed_count : t -> int
(** Cycles for which blame was pinned on a specific transaction. *)

val nodes_allocated : t -> int
val nodes_max_alive : t -> int
val nodes_live : t -> int

val debug_pool : t -> Pool.t
(** The engine's happens-before graph, for differential tests that check
    the pool's bitset ancestor sets against reference graph reachability.
    Not part of the analysis API. *)

val backend : ?config:config -> unit -> (module Backend.S)
(** Package as a RoadRunner-style back-end named ["velodrome"] (or
    ["velodrome-nomerge"]). *)
