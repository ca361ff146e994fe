(** Structured analysis warnings.

    Every back-end reports through this type so the evaluation harness can
    count, classify (real vs false alarm, via workload ground truth) and
    deduplicate warnings uniformly, the way the paper counts "distinct
    warnings" per method. *)

open Velodrome_trace
open Velodrome_trace.Ids

type kind =
  | Atomicity_violation
      (** a non-serializable trace was observed (Velodrome) *)
  | Reduction_failure
      (** the block does not match the right-movers/left-movers pattern
          (Atomizer); may be a false alarm *)
  | Race  (** unsynchronized conflicting accesses (Eraser, HB detector) *)
  | Deadlock  (** all runnable threads blocked (simulator) *)

type t = {
  analysis : string;  (** back-end name *)
  kind : kind;
  tid : Tid.t option;  (** thread the warning concerns *)
  label : Label.t option;
      (** blamed atomic block / method; [None] when blame could not be
          assigned to a particular block *)
  var : Var.t option;  (** variable involved, for race reports *)
  message : string Lazy.t;
      (** rendered on first read; read it with {!message} *)
  dot : string option;
      (** always [None]: no back-end renders an error graph eagerly any
          more. The engine's graphs are rendered on demand by {!graph}.
          The field stays for readers that still match on it. *)
  graph : string Lazy.t option;
      (** the error graph in dot form, rendered on first read; read it
          with {!graph} *)
  index : int;  (** event index at which the warning fired *)
  blamed : bool;
      (** true when blame analysis pinned a specific non-self-serializable
          transaction (Velodrome's >80 % statistic) *)
  refuted : Label.t list;
      (** every block refuted by the blame analysis, outermost first
          ([label] is its head); empty for unblamed warnings. The static
          pre-pass soundness gate checks no statically proved label ever
          appears here. *)
}

val make :
  analysis:string ->
  kind:kind ->
  ?tid:Tid.t ->
  ?label:Label.t ->
  ?var:Var.t ->
  ?blamed:bool ->
  ?refuted:Label.t list ->
  index:int ->
  string ->
  t
(** A warning with a ready message and no error graph. *)

(** The lazy fields are forced by whichever domain reads them first, and
    only the domain that built a warning may read it while it can still
    be unforced: two domains forcing one lazy value at once raise
    [Lazy.Undefined]. serve renders each stream's warnings inside the
    worker domain that checked it, and only strings leave that domain. *)

val message : t -> string
val graph : t -> string option

val pp : Names.t -> Format.formatter -> t -> unit

val to_json : Names.t -> t -> Velodrome_util.Json.t
(** The JSON object the CLI reports for a warning (check-trace and
    serve); resolves ids through [names], omits absent label/var, keeps
    the pinned field order. *)

val dedup_by_label : t list -> t list
(** Keep the first warning for each (analysis, kind, label) triple —
    the paper's "distinct warnings per method" counting. Warnings without
    a label are deduplicated by (analysis, kind, var, tid). *)

val kind_to_string : kind -> string
