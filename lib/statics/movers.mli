(** Lipton mover classification of every observable operation site.

    An acquire is a {e right}-mover, a release a {e left}-mover,
    re-entrant ones (definite depth from the {!Lockset} dataflow)
    both-movers. Shared accesses follow Atomizer's race-freedom
    condition {e per site}, driven by the pairwise {!Races} relation: a
    non-volatile access is a {e both}-mover iff it appears in {b no}
    static race pair. This strictly subsumes the thread-local /
    read-only / globally-guarded conditions (each implies pair-freedom)
    and also proves sites like the guarded reads of a variable whose
    only unsynchronized accesses are reads in some other thread, or
    single-writer variables protected by per-reader-pair distinct locks.
    The [why_both] witness keeps the most specific of those explanations
    and falls back to [Race_free] otherwise; a racy access carries the
    opposing site as its [Racy] witness.

    Race pairs over-approximate true races ({!Races}), so both-mover
    claims hold on every execution — what {!Reduce}'s [Proved_atomic]
    verdicts and the [static_atomic] event filter rely on. *)

open Velodrome_trace
open Velodrome_trace.Ids

module IntSet : Set.S with type elt = int

type why_both =
  | Guarded of Lock.t  (** witness guard (the smallest-id common lock) *)
  | Thread_local
  | Read_only
  | Race_free
      (** in no race pair: every conflicting access shares some lock,
          though no single lock covers all sites *)
  | Reentrant

type why_non =
  | Volatile_access
  | Unguarded  (** the conservative default for a site with no class *)
  | Racy of Cfg.site  (** the opposing end of a witnessing race pair *)

type klass = Both of why_both | Right | Left | Non of why_non

type var_facts = {
  threads : IntSet.t;
  written : bool;
  guards : IntSet.t option;
}

type t

val analyze :
  ?dead:(Cfg.site -> bool) ->
  Names.t ->
  Cfg.t ->
  Lockset.t ->
  Races.t ->
  t
(** [dead] marks statically-dead sites
    from the {!Values} pass: dead accesses neither pollute the per-var
    thread/write facts nor receive a class, so a variable whose only
    cross-thread accesses are dead reclassifies as thread-local and a
    site whose racy partner died becomes a both-mover. Defaults to
    nothing dead. *)

val at_site : t -> Cfg.site -> klass option
(** [None] for sites with no observable effect (silent statements). *)

val var_facts : t -> Var.t -> var_facts

val suppressible : t -> Var.t -> bool
(** True when accesses to the variable may be elided inside proved blocks
    without changing any back-end's warnings elsewhere: the variable is
    thread-local, consistently guarded, or written but free of race
    pairs — every conflicting pair then shares a lock whose
    kept acquire/release events subsume the elided ordering edges.
    Read-only is excluded — see the implementation note. *)

val pp_klass : Names.t -> Format.formatter -> klass -> unit
val pp_why_both : Names.t -> Format.formatter -> why_both -> unit
val pp_why_non : Format.formatter -> why_non -> unit
