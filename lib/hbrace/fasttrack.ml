open Velodrome_trace
open Velodrome_trace.Ids
open Velodrome_analysis
module Vclock = Velodrome_util.Vclock

type read_state =
  | Read_epoch of Epoch.t  (** reads so far are totally ordered *)
  | Read_vc of Vclock.t  (** concurrent reads: inflated *)

type var_state = { mutable w : Epoch.t; mutable r : read_state }

type t = {
  names : Names.t;
  threads : (int, Vclock.t) Hashtbl.t;
  locks : (int, Vclock.t) Hashtbl.t;
  vars : (int, var_state) Hashtbl.t;
  mutable warnings_rev : Warning.t list;
  reported : (int, unit) Hashtbl.t;
}

let name = "fasttrack"

let create names =
  {
    names;
    threads = Hashtbl.create 8;
    locks = Hashtbl.create 16;
    vars = Hashtbl.create 64;
    warnings_rev = [];
    reported = Hashtbl.create 8;
  }

let thread_clock t ti =
  match Hashtbl.find_opt t.threads ti with
  | Some c -> c
  | None ->
    let c = Vclock.create () in
    Vclock.set c ti 1;
    Hashtbl.replace t.threads ti c;
    c

let var_state t x =
  match Hashtbl.find_opt t.vars x with
  | Some vs -> vs
  | None ->
    let vs = { w = Epoch.none; r = Read_epoch Epoch.none } in
    Hashtbl.replace t.vars x vs;
    vs

let report t (e : Event.t) x ~kind_str =
  if not (Hashtbl.mem t.reported x) then begin
    Hashtbl.replace t.reported x ();
    let var = Var.of_int x in
    let message =
      Printf.sprintf "%s race on %s (epoch check failed)" kind_str
        (Names.var_name t.names var)
    in
    t.warnings_rev <-
      Warning.make ~analysis:name ~kind:Warning.Race ~tid:(Op.tid e.Event.op)
        ~var ~index:e.Event.index message
      :: t.warnings_rev
  end

let on_event t (e : Event.t) =
  match e.Event.op with
  | Op.Acquire (u, m) ->
    let c = thread_clock t (Tid.to_int u) in
    (match Hashtbl.find_opt t.locks (Lock.to_int m) with
    | Some lm -> Vclock.join c lm
    | None -> ())
  | Op.Release (u, m) ->
    let ti = Tid.to_int u in
    let c = thread_clock t ti in
    Hashtbl.replace t.locks (Lock.to_int m) (Vclock.copy c);
    Vclock.incr c ti
  | Op.Read (u, x) when not (Names.is_volatile t.names x) ->
    let ti = Tid.to_int u in
    let c = thread_clock t ti in
    let vs = var_state t (Var.to_int x) in
    let epoch = Epoch.make ~tid:ti ~clock:(Vclock.get c ti) in
    let same_epoch =
      match vs.r with
      | Read_epoch r -> Epoch.equal r epoch
      | Read_vc _ -> false
    in
    if not same_epoch then begin
      if not (Epoch.leq_vc vs.w c) then
        report t e (Var.to_int x) ~kind_str:"read-write";
      match vs.r with
      | Read_epoch r when Epoch.leq_vc r c ->
        (* Reads remain totally ordered: stay in the fast path. *)
        vs.r <- Read_epoch epoch
      | Read_epoch r ->
        (* Concurrent reads: inflate to a read vector. *)
        let vc = Vclock.create () in
        if not (Epoch.is_none r) then
          Vclock.set vc (Epoch.tid r) (Epoch.clock r);
        Vclock.set vc ti (Vclock.get c ti);
        vs.r <- Read_vc vc
      | Read_vc vc -> Vclock.set vc ti (Vclock.get c ti)
    end
  | Op.Write (u, x) when not (Names.is_volatile t.names x) ->
    let ti = Tid.to_int u in
    let c = thread_clock t ti in
    let vs = var_state t (Var.to_int x) in
    let epoch = Epoch.make ~tid:ti ~clock:(Vclock.get c ti) in
    if not (Epoch.equal vs.w epoch) then begin
      if not (Epoch.leq_vc vs.w c) then
        report t e (Var.to_int x) ~kind_str:"write-write"
      else begin
        match vs.r with
        | Read_epoch r ->
          if not (Epoch.leq_vc r c) then
            report t e (Var.to_int x) ~kind_str:"read-write"
        | Read_vc vc ->
          if not (Vclock.leq vc c) then
            report t e (Var.to_int x) ~kind_str:"read-write"
      end;
      vs.w <- epoch
    end
  | Op.Read _ | Op.Write _ | Op.Begin _ | Op.End _ -> ()

let finish _ = ()
let warnings t = List.rev t.warnings_rev

let backend () : (module Backend.S) =
  (module struct
    type nonrec t = t

    let name = name
    let create = create
    let on_event = on_event
    let pause_hint _ _ = false
    let finish = finish
    let warnings = warnings
  end)
