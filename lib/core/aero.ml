open Velodrome_trace
open Velodrome_trace.Ids
open Velodrome_analysis
module Vclock = Velodrome_util.Vclock

(* A transaction is an epoch (tid, ord) plus the clock of everything it
   happens-after. The clock is mutable and shared by reference from the
   last-writer / last-reader / last-releaser tables, so a reader always
   joins the source transaction's *current* ancestor set.

   The invariant that makes the O(1) membership test below equivalent to
   Basic's graph reachability: every clock the checker can still read
   (an active transaction, or one referenced from a table) is *exactly*
   its transaction's transitive ancestor-epoch set. Keeping it exact
   when a transaction gains an ancestor after others have already
   observed it is the broadcast in [edge] — see the comment there. *)
type txn = {
  tid : int;
  ord : int;  (** this thread's transaction ordinal, from 1 *)
  label : int;  (** label id, -1 for unary transactions *)
  clock : Vclock.t;
  mutable shared : bool;
      (** whether this transaction's epoch may appear in another clock:
          set the first time it is the source of a join. Epochs spread
          only through joins whose source clock carries them, so an
          unshared transaction has no observers and gaining an ancestor
          needs no broadcast — the common case for program-order edges
          and for transactions nobody reads from. *)
}

type t = {
  names : Names.t;
  mutable txns : int;
  cur : (int, txn) Hashtbl.t;  (** tid -> active transaction *)
  depth : (int, int) Hashtbl.t;  (** tid -> open block nesting *)
  last : (int, txn) Hashtbl.t;  (** tid -> last finished transaction *)
  ords : (int, int) Hashtbl.t;  (** tid -> transactions begun so far *)
  rel : (int, txn) Hashtbl.t;  (** lock -> last releasing transaction *)
  rd : (int, (int, txn) Hashtbl.t) Hashtbl.t;
      (** var -> tid -> last reader *)
  wr : (int, txn) Hashtbl.t;  (** var -> last writer *)
  mutable cycles : int;
  mutable first_error : int option;
  mutable warnings_rev : Warning.t list;
  reported : (int, unit) Hashtbl.t;  (** label ids already reported *)
}

let create names =
  {
    names;
    txns = 0;
    cur = Hashtbl.create 8;
    depth = Hashtbl.create 8;
    last = Hashtbl.create 8;
    ords = Hashtbl.create 8;
    rel = Hashtbl.create 8;
    rd = Hashtbl.create 64;
    wr = Hashtbl.create 64;
    cycles = 0;
    first_error = None;
    warnings_rev = [];
    reported = Hashtbl.create 8;
  }

let report t (e : Event.t) (dst : txn) =
  t.cycles <- t.cycles + 1;
  if t.first_error = None then t.first_error <- Some e.Event.index;
  if not (Hashtbl.mem t.reported dst.label) then begin
    Hashtbl.replace t.reported dst.label ();
    let label = if dst.label >= 0 then Some (Label.of_int dst.label) else None in
    let message =
      Printf.sprintf "happens-before cycle involving transaction of %s"
        (match label with
        | Some l -> Names.label_name t.names l
        | None -> "a unary transaction")
    in
    t.warnings_rev <-
      Warning.make ~analysis:"aero" ~kind:Warning.Atomicity_violation
        ~tid:(Op.tid e.Event.op) ?label ~index:e.Event.index message
      :: t.warnings_rev
  end

(* Join [c] into every live clock that already carries [dst]'s epoch.

   When [dst] (always the acting thread's current transaction) gains new
   ancestors, every transaction that transitively observed [dst] must
   gain them too. Walking a dependency graph forward is quadratic on
   dense traces; instead, exploit the invariant itself: a transaction
   depends on [dst] iff its clock holds [dst]'s epoch, so its
   *transitive* observers are found directly by one membership test per
   live clock — no graph, no recursion. One level suffices because every
   observer of an observer already carries [dst]'s epoch (it was either
   joined from a clock that had it, or covered by the broadcast that
   installed it). Clocks of dead transactions (finished and dropped from
   every table) go stale, but nothing can read them again: tables are
   only ever overwritten with the acting thread's current transaction. *)
let broadcast t (dst : txn) c =
  let touch (u : txn) =
    if
      u != dst
      && Vclock.get u.clock dst.tid >= dst.ord
      && not (Vclock.leq c u.clock)
    then Vclock.join u.clock c
  in
  Hashtbl.iter (fun _ u -> touch u) t.cur;
  Hashtbl.iter (fun _ u -> touch u) t.last;
  Hashtbl.iter (fun _ u -> touch u) t.rel;
  Hashtbl.iter
    (fun _ readers -> Hashtbl.iter (fun _ u -> touch u) readers)
    t.rd;
  Hashtbl.iter (fun _ u -> touch u) t.wr

(* The happens-before edge [src -> dst], i.e. Basic's [add_edge]. A
   cycle closes exactly when [dst] is already an ancestor of [src] —
   with exact clocks, a single component test. On violation the join is
   dropped, keeping clocks cycle-free (Basic drops the same edge, so the
   two stay in lockstep after a violation too). The broadcast cannot
   silently close a cycle: if [src]'s ancestors included any descendant
   of [dst], transitivity would put [dst] itself among them and the
   membership test would have fired first. *)
let edge t (e : Event.t) (src : txn) (dst : txn) =
  if src != dst then begin
    if Vclock.get src.clock dst.tid >= dst.ord then report t e dst
    else if not (Vclock.leq src.clock dst.clock) then begin
      src.shared <- true;
      Vclock.join dst.clock src.clock;
      if dst.shared then broadcast t dst src.clock
    end
  end

let tid_of e = Tid.to_int (Op.tid e.Event.op)

let enter t (e : Event.t) label =
  let ti = tid_of e in
  let ord = Option.value ~default:0 (Hashtbl.find_opt t.ords ti) + 1 in
  Hashtbl.replace t.ords ti ord;
  t.txns <- t.txns + 1;
  let clock = Vclock.create () in
  Vclock.set clock ti ord;
  let tx = { tid = ti; ord; label; clock; shared = false } in
  (match Hashtbl.find_opt t.last ti with
  | Some prev -> edge t e prev tx
  | None -> ());
  Hashtbl.replace t.cur ti tx;
  tx

let exit t (e : Event.t) =
  let ti = tid_of e in
  match Hashtbl.find_opt t.cur ti with
  | Some tx ->
    Hashtbl.remove t.cur ti;
    Hashtbl.replace t.last ti tx
  | None -> ()

let do_acquire t (e : Event.t) tx m =
  match Hashtbl.find_opt t.rel (Lock.to_int m) with
  | Some last -> edge t e last tx
  | None -> ()

let do_release t tx m = Hashtbl.replace t.rel (Lock.to_int m) tx

let do_read t (e : Event.t) tx x =
  let xi = Var.to_int x in
  (match Hashtbl.find_opt t.wr xi with
  | Some last -> edge t e last tx
  | None -> ());
  let readers =
    match Hashtbl.find_opt t.rd xi with
    | Some readers -> readers
    | None ->
      let readers = Hashtbl.create 8 in
      Hashtbl.replace t.rd xi readers;
      readers
  in
  Hashtbl.replace readers tx.tid tx

let do_write t (e : Event.t) tx x =
  let xi = Var.to_int x in
  (match Hashtbl.find_opt t.rd xi with
  | Some readers -> Hashtbl.iter (fun _ reader -> edge t e reader tx) readers
  | None -> ());
  (match Hashtbl.find_opt t.wr xi with
  | Some last -> edge t e last tx
  | None -> ());
  Hashtbl.replace t.wr xi tx

let on_event t (e : Event.t) =
  let ti = tid_of e in
  let dep = Option.value ~default:0 (Hashtbl.find_opt t.depth ti) in
  match e.Event.op with
  | Op.Begin (_, l) ->
    Hashtbl.replace t.depth ti (dep + 1);
    if dep = 0 then ignore (enter t e (Label.to_int l))
  | Op.End _ ->
    if dep > 0 then begin
      Hashtbl.replace t.depth ti (dep - 1);
      if dep = 1 then exit t e
    end
  | Op.Acquire (_, m) -> (
    match Hashtbl.find_opt t.cur ti with
    | Some tx -> do_acquire t e tx m
    | None ->
      (* [INS OUTSIDE]: fresh unary transaction around the operation. *)
      let tx = enter t e (-1) in
      do_acquire t e tx m;
      exit t e)
  | Op.Release (_, m) -> (
    match Hashtbl.find_opt t.cur ti with
    | Some tx -> do_release t tx m
    | None ->
      let tx = enter t e (-1) in
      do_release t tx m;
      exit t e)
  | Op.Read (_, x) -> (
    match Hashtbl.find_opt t.cur ti with
    | Some tx -> do_read t e tx x
    | None ->
      let tx = enter t e (-1) in
      do_read t e tx x;
      exit t e)
  | Op.Write (_, x) -> (
    match Hashtbl.find_opt t.cur ti with
    | Some tx -> do_write t e tx x
    | None ->
      let tx = enter t e (-1) in
      do_write t e tx x;
      exit t e)

let finish _ = ()
let warnings t = List.rev t.warnings_rev
let has_error t = t.cycles > 0
let cycles_found t = t.cycles
let first_error_index t = t.first_error
let transactions t = t.txns

let backend () : (module Backend.S) =
  (module struct
    type nonrec t = t

    let name = "aero"
    let create = create
    let on_event = on_event
    let pause_hint _ _ = false
    let finish = finish
    let warnings = warnings
  end)
