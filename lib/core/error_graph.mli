(** Error graphs (Section 5).

    When Velodrome detects a non-serializable trace it renders the cycle of
    transactions as a graph: boxes for transactions, edges labelled with
    the operation that induced them, the cycle-closing edge dashed, and the
    blamed transaction outlined.

    A value of {!t} is the compact snapshot the engine takes when a cycle
    yields a new warning; the dot text and the one-line summary are
    rendered from it only when someone reads them. *)

open Velodrome_trace

type t = {
  slots : int array;  (** node [i]'s pool slot, unique within the cycle *)
  tids : int array;
  labels : int array;  (** label ids, [-1] for unary transactions *)
  blamed : int;  (** index of the blamed node, or [-1] *)
  ops : Op.t array;
      (** [ops.(i)] induced the edge from node [i] to node [i + 1]; the
          last one, from the last node back to node [0], is the rejected
          cycle-closing edge *)
}

val to_dot : Names.t -> name:string -> t -> string

val pp_summary : Names.t -> Format.formatter -> t -> unit
(** One-line cycle description, e.g. [add(t0) -> unary(t1) -> add(t0)]. *)
