open Velodrome_trace
open Velodrome_util

type node = {
  slot : int;
  mutable next_ts : int;
  mutable collected_upto : int;
  mutable live : bool;
  mutable active : bool;
  mutable refcount : int;
  out : edge Vec.t;  (** out-edges; the destination slot lives in the edge *)
  ancestors : Bitset.t;  (** live slots with a path here *)
  descendants : Bitset.t;
      (** live slots this node has a path to — the mirror of [ancestors],
          so collecting a node clears its ancestor bit-column by visiting
          exactly the nodes that carry it *)
  mutable d_tid : int;
  mutable d_label : int;
  mutable d_event : int;
}

and edge = {
  dst_slot : int;
  mutable tail_ts : int;
  mutable head_ts : int;
  mutable diag_op : Op.t;
  mutable diag_index : int;
}

type t = {
  slots : node Vec.t;  (** every slot record ever created; index = slot *)
  free : int Vec.t;  (** recycled slots; a [Vec] so push/pop never cons *)
  mutable live_count : int;
  counter : Stats.counter;
  mutable clear_work : int;
      (** cumulative nodes visited while clearing ancestor bit-columns in
          [collect]; instrumentation for the free-cost regression test *)
  mutable path_slot : int array;
      (** the last path [find_path] found, by slot: its start at 0, its
          end at [path_len] *)
  mutable path_out : int array;
      (** [path_out.(i)]: the index, in node [i]'s out-edges, of the path
          edge leaving it *)
  mutable path_len : int;
  mutable closing_tail_ts : int;
  mutable closing_head_ts : int;
}

let create () =
  {
    slots = Vec.create ();
    free = Vec.create ();
    live_count = 0;
    counter = Stats.counter ();
    clear_work = 0;
    path_slot = Array.make 16 0;
    path_out = Array.make 16 0;
    path_len = 0;
    closing_tail_ts = 0;
    closing_head_ts = 0;
  }

let slot n = n.slot
let is_live n = n.live
let is_active n = n.active
let diag_tid n = n.d_tid
let diag_label n = n.d_label
let diag_event n = n.d_event

let alloc t ~tid ~label ~event =
  let n =
    let nfree = Vec.length t.free in
    if nfree > 0 then begin
      let s = Vec.unsafe_get t.free (nfree - 1) in
      Vec.drop_last t.free;
      let n = Vec.unsafe_get t.slots s in
      n.live <- true;
      n.active <- false;
      n.refcount <- 0;
      n
    end
    else begin
      let s = Vec.length t.slots in
      if s >= Step.max_slots then
        failwith "Pool.alloc: live node count exceeds slot space";
      let n =
        {
          slot = s;
          next_ts = 1;
          collected_upto = 0;
          live = true;
          active = false;
          refcount = 0;
          out = Vec.create ();
          ancestors = Bitset.create ~capacity:64 ();
          descendants = Bitset.create ~capacity:64 ();
          d_tid = -1;
          d_label = -1;
          d_event = -1;
        }
      in
      Vec.push t.slots n;
      n
    end
  in
  n.d_tid <- tid;
  n.d_label <- label;
  n.d_event <- event;
  t.live_count <- t.live_count + 1;
  Stats.incr t.counter;
  n

let fresh_ts n =
  let ts = n.next_ts in
  n.next_ts <- ts + 1;
  ts

let step_of n ~ts = Step.make_unchecked ~slot:n.slot ~ts

let step_live t s =
  (not (Step.is_bottom s))
  &&
  let sl = Step.slot_unchecked s in
  sl < Vec.length t.slots
  &&
  let n = Vec.unsafe_get t.slots sl in
  n.live && Step.ts_unchecked s > n.collected_upto

let node_of_step t s = Vec.unsafe_get t.slots (Step.slot_unchecked s)

let resolve t s = if step_live t s then Some (node_of_step t s) else None

(* Clear bit [slot] from the ancestor set of every node named by the bit
   pattern [x] (bit i of the pattern = slot [base + i]). Tail-recursive so
   the hot path allocates nothing. *)
let rec clear_column t ~slot x base =
  if x <> 0 then begin
    if x land 1 <> 0 then begin
      t.clear_work <- t.clear_work + 1;
      Bitset.clear_bit (Vec.unsafe_get t.slots base).ancestors slot
    end;
    if x land 0xff = 0 then clear_column t ~slot (x lsr 8) (base + 8)
    else clear_column t ~slot (x lsr 1) (base + 1)
  end

let rec collect t n =
  n.live <- false;
  n.collected_upto <- n.next_ts - 1;
  t.live_count <- t.live_count - 1;
  Stats.decr t.counter;
  (* Keep the ancestor-set invariant: sets only mention live slots. A node
     with no incoming edges has an empty ancestor set, and every node it
     reaches is exactly its descendant set — so the sweep visits only
     nodes that actually carry this slot's bit, never the whole live
     set. *)
  let dwords = Bitset.words n.descendants in
  for w = 0 to Array.length dwords - 1 do
    clear_column t ~slot:n.slot dwords.(w) (w * Bitset.bits_per_word)
  done;
  Bitset.reset n.descendants;
  Bitset.reset n.ancestors;
  Vec.push t.free n.slot;
  (* This node can never again be the target of an edge, so its outgoing
     edges cannot participate in any future cycle; drop them, releasing
     references and possibly cascading. *)
  for i = 0 to Vec.length n.out - 1 do
    let e = Vec.unsafe_get n.out i in
    let dst = Vec.unsafe_get t.slots e.dst_slot in
    if dst.live then begin
      dst.refcount <- dst.refcount - 1;
      maybe_collect t dst
    end
  done;
  Vec.clear n.out

and maybe_collect t n =
  if n.live && (not n.active) && n.refcount = 0 then collect t n

let set_active t n b =
  n.active <- b;
  if not b then maybe_collect t n

let sweep = maybe_collect

let happens_before_or_eq _t a b =
  a.slot = b.slot || Bitset.mem b.ancestors a.slot

let push_frame t depth slot =
  if depth = Array.length t.path_slot then begin
    let grow a =
      let b = Array.make (2 * depth) 0 in
      Array.blit a 0 b 0 depth;
      b
    in
    t.path_slot <- grow t.path_slot;
    t.path_out <- grow t.path_out
  end;
  Array.unsafe_set t.path_slot depth slot

(* Index of [n]'s first out-edge into [dst] or one of its ancestors, or -1. *)
let rec first_step (dst : node) (n : node) i =
  if i >= Vec.length n.out then -1
  else
    let d = (Vec.unsafe_get n.out i).dst_slot in
    if d = dst.slot || Bitset.mem dst.ancestors d then i
    else first_step dst n (i + 1)

(* Extend the path from the node at [depth] by its first out-edge into
   [dst] or one of its ancestors. Every node the walk enters is an
   ancestor of [dst] and so has such an edge, and the graph is acyclic, so
   the walk reaches [dst] without ever backtracking. *)
let rec walk t (dst : node) depth =
  let n = Vec.unsafe_get t.slots (Array.unsafe_get t.path_slot depth) in
  let i = first_step dst n 0 in
  if i < 0 then false
  else begin
    Array.unsafe_set t.path_out depth i;
    let d = (Vec.unsafe_get n.out i).dst_slot in
    push_frame t (depth + 1) d;
    if d = dst.slot then begin
      t.path_len <- depth + 1;
      true
    end
    else walk t dst (depth + 1)
  end

(* The path a depth-first search from [src] over live out-edges, in
   insertion order, finds to [dst]: that search leaves each node through
   its first out-edge whose destination can reach [dst], which is exactly
   the edge [walk] takes, since a node other than [dst] can reach [dst]
   iff it is in [dst]'s ancestor set. Pruning to ancestors thus turns the
   search into a walk that visits only path nodes, and it allocates
   nothing unless the path buffers have to grow. *)
let find_path t ~src ~dst =
  t.path_len <- 0;
  push_frame t 0 src.slot;
  walk t dst 0

let path_length t = t.path_len

let path_node t i =
  if i < 0 || i > t.path_len then invalid_arg "Pool.path_node";
  Vec.unsafe_get t.slots t.path_slot.(i)

let path_edge t i =
  if i < 0 || i >= t.path_len then invalid_arg "Pool.path_edge";
  Vec.unsafe_get (path_node t i).out t.path_out.(i)

let closing_tail_ts t = t.closing_tail_ts
let closing_head_ts t = t.closing_head_ts

(* Set bit [m_slot] in the descendant set of every node named by the bit
   pattern [x]: the fresh ancestors [m] just gained. *)
let rec mirror_descendants t ~m_slot x base =
  if x <> 0 then begin
    if x land 1 <> 0 then
      Bitset.set (Vec.unsafe_get t.slots base).descendants m_slot;
    if x land 0xff = 0 then mirror_descendants t ~m_slot (x lsr 8) (base + 8)
    else mirror_descendants t ~m_slot (x lsr 1) (base + 1)
  end

(* [dst <- dst ∪ src] word-wise, mirroring every newly added ancestor bit
   into that ancestor's descendant set; returns whether [dst] changed.
   Hand-rolled rather than [Bitset.union_into_on_new] to keep the event
   fast path free of closure allocation. *)
let union_ancestors t ~src ~(m : node) =
  let sw = Bitset.words src in
  (* Size from the highest non-zero word, never from raw capacity: sizing
     one set from another's capacity lets capacities ratchet under
     repeated unions (each growth may double), and the word loop would
     then scan ever-larger tails of zeros. *)
  let top = Bitset.top_word src in
  if top >= 0 then
    Bitset.ensure_bits m.ancestors (((top + 1) * Bitset.bits_per_word) - 1);
  let dw = Bitset.words m.ancestors in
  let changed = ref false in
  for w = 0 to top do
    let s = sw.(w) in
    if s <> 0 then begin
      let d = dw.(w) in
      let fresh = s land lnot d in
      if fresh <> 0 then begin
        changed := true;
        dw.(w) <- d lor s;
        mirror_descendants t ~m_slot:m.slot fresh (w * Bitset.bits_per_word)
      end
    end
  done;
  !changed

(* Close the ancestor sets under a new edge src -> dst: push
   {src} ∪ ancestors(src) into dst and, transitively, into everything dst
   reaches, stopping as soon as a set stops changing. *)
let rec push_closure t (src : node) (m : node) =
  let changed =
    if Bitset.add m.ancestors src.slot then begin
      Bitset.set src.descendants m.slot;
      true
    end
    else false
  in
  let changed = union_ancestors t ~src:src.ancestors ~m || changed in
  if changed then
    for i = 0 to Vec.length m.out - 1 do
      let d = Vec.unsafe_get t.slots (Vec.unsafe_get m.out i).dst_slot in
      if d.live then push_closure t src d
    done

let find_out_index (n : node) dst_slot =
  let len = Vec.length n.out in
  let rec go i =
    if i >= len then -1
    else if (Vec.unsafe_get n.out i).dst_slot = dst_slot then i
    else go (i + 1)
  in
  go 0

let add_edge t ~src ~src_ts ~dst ~dst_ts ~op ~index =
  if src.slot = dst.slot then `Self
  else if Bitset.mem src.ancestors dst.slot then begin
    (* [dst ⇒* src] already holds; the new edge would close a cycle. *)
    t.closing_tail_ts <- src_ts;
    t.closing_head_ts <- dst_ts;
    `Cycle
  end
  else begin
    let i = find_out_index src dst.slot in
    if i >= 0 then begin
      (* ⊕ keeps one edge per node pair: replace the timestamps. *)
      let e = Vec.unsafe_get src.out i in
      e.tail_ts <- src_ts;
      e.head_ts <- dst_ts;
      e.diag_op <- op;
      e.diag_index <- index
    end
    else begin
      Vec.push src.out
        {
          dst_slot = dst.slot;
          tail_ts = src_ts;
          head_ts = dst_ts;
          diag_op = op;
          diag_index = index;
        };
      dst.refcount <- dst.refcount + 1
    end;
    push_closure t src dst;
    `Ok
  end

let live_count t = t.live_count
let allocated t = Stats.total_increments t.counter
let max_alive t = Stats.high_water t.counter
let clear_work t = t.clear_work

let check_no_live t =
  let k = live_count t in
  if k = 0 then Ok () else Error k

(* --- Introspection for tests ---------------------------------------------- *)

let live_slots t =
  let acc = ref [] in
  Vec.iter (fun n -> if n.live then acc := n.slot :: !acc) t.slots;
  List.rev !acc

let node_of_slot t s =
  if s < Vec.length t.slots then begin
    let n = Vec.get t.slots s in
    if n.live then Some n else None
  end
  else None

let out_slots n = List.map (fun (e : edge) -> e.dst_slot) (Vec.to_list n.out)

let ancestor_slots n = Bitset.to_list n.ancestors
let descendant_slots n = Bitset.to_list n.descendants
