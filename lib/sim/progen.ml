open Velodrome_trace.Ids
module Rng = Velodrome_util.Rng

type config = {
  max_threads : int;
  vars : int;
  locks : int;
  top_items : int;
}

let default = { max_threads = 4; vars = 6; locks = 3; top_items = 4 }

(* Shared generator state. Variable discipline is fixed up front and the
   generator never violates it, so every program is well-formed by
   construction (Check.check_program accepts it) while still covering the
   whole mover spectrum:

   - [guarded] variables carry a designated guard lock and are only ever
     accessed inside [sync] of that lock — consistently guarded, hence
     both-movers;
   - [free] variables are accessed bare or under a randomly chosen lock —
     racy, hence (usually) non-movers and a source of genuine dynamic
     atomicity violations for the soundness gate to chew on;
   - one private variable per thread is touched only by its owner —
     thread-local, hence a both-mover. *)
type ctx = {
  b : Builder.t;
  rng : Rng.t;
  locks : Lock.t array;
  guarded : (Var.t * Lock.t) array;
  free : Var.t array;
  mutable labels : int;
}

(* Single-writer/many-reader publication: thread 0 writes [pub] holding
   every per-reader pair lock, then raises [flag] under the handshake
   lock; reader [t] re-checks the flag under the handshake lock and only
   then reads [pub] under its own pair lock [pair.(t-1)]. Every
   conflicting access pair thus shares one pair lock — statically
   race-free under the pairwise rule — yet no single lock covers all
   sites, so a whole-variable common-guard rule could not prove the
   enclosing atomic blocks. The flag handshake orders every write before any read
   on every schedule, which keeps the dynamic race detectors (Eraser,
   happens-before) quiet too. *)
type publish = {
  pub : Var.t;
  flag : Var.t;
  handshake : Lock.t;
  pair : Lock.t array;  (** pair.(t-1) guards writer vs. reader [t] *)
}

let fresh_label ctx =
  ctx.labels <- ctx.labels + 1;
  Builder.label ctx.b (Printf.sprintf "gen.b%d" ctx.labels)

let access ctx v =
  let reg = Builder.fresh_reg ctx.b in
  if Rng.bool ctx.rng then Builder.read reg v
  else Builder.write v (Builder.i (Rng.int ctx.rng 64))

let guarded_access ctx =
  let v, m = Rng.choose ctx.rng ctx.guarded in
  Builder.sync m [ access ctx v ]

let free_access ctx = [ access ctx (Rng.choose ctx.rng ctx.free) ]

(* Random statements; [depth] bounds the nesting of if/while/atomic. *)
let rec random_stmts ctx ~depth n =
  List.concat (List.init n (fun _ -> random_item ctx ~depth))

and random_item ctx ~depth =
  match Rng.int ctx.rng (if depth <= 0 then 4 else 7) with
  | 0 -> guarded_access ctx
  | 1 -> free_access ctx
  | 2 -> [ Builder.work (1 + Rng.int ctx.rng 3) ]
  | 3 -> [ Builder.yield ]
  | 4 ->
    let reg = Builder.fresh_reg ctx.b in
    let v = Rng.choose ctx.rng ctx.free in
    [
      Builder.read reg v;
      Builder.if_
        Builder.(r reg <: i 32)
        (random_stmts ctx ~depth:(depth - 1) (1 + Rng.int ctx.rng 2))
        (random_stmts ctx ~depth:(depth - 1) (Rng.int ctx.rng 2));
    ]
  | 5 ->
    let k = Builder.fresh_reg ctx.b in
    let n = 1 + Rng.int ctx.rng 3 in
    [
      Builder.local k (Builder.i 0);
      Builder.while_
        Builder.(r k <: i n)
        (random_stmts ctx ~depth:(depth - 1) (1 + Rng.int ctx.rng 2)
        @ [ Builder.local k Builder.(r k +: i 1) ]);
    ]
  | _ -> [ atomic_block ctx ~depth:(depth - 1) ]

and atomic_block ctx ~depth =
  let label = fresh_label ctx in
  let body =
    if Rng.bool ctx.rng then begin
      (* A proof candidate: one sync over one lock, containing only that
         lock's guarded variables and silent work. *)
      let m_idx = Rng.int ctx.rng (Array.length ctx.locks) in
      let m = ctx.locks.(m_idx) in
      let mine =
        Array.of_list
          (List.filter_map
             (fun (v, g) -> if Lock.equal g m then Some v else None)
             (Array.to_list ctx.guarded))
      in
      let inner =
        List.init
          (1 + Rng.int ctx.rng 3)
          (fun _ ->
            if Array.length mine > 0 && Rng.int ctx.rng 4 > 0 then
              access ctx (Rng.choose ctx.rng mine)
            else Builder.work 1)
      in
      Builder.sync m inner
    end
    else random_stmts ctx ~depth (1 + Rng.int ctx.rng 3)
  in
  Builder.atomic label body

type info = { families : string list }

let generate_info ?(config = default) rng =
  let b = Builder.create () in
  let nthreads = 2 + Rng.int rng (max 1 (config.max_threads - 1)) in
  let locks =
    Array.init (max 1 config.locks) (fun i ->
        Builder.lock b (Printf.sprintf "m%d" i))
  in
  let vars =
    Array.init (max 2 config.vars) (fun i ->
        Builder.var ~init:i b (Printf.sprintf "x%d" i))
  in
  let guarded = ref [] and free = ref [] in
  Array.iteri
    (fun i v ->
      if i mod 2 = 0 then
        guarded := (v, locks.(i mod Array.length locks)) :: !guarded
      else free := v :: !free)
    vars;
  if Rng.bool rng then
    (* One lock-free volatile in the mix: a non-mover for the statics,
       ignored by the race detectors. *)
    free := Builder.volatile b "vol" :: !free;
  let ctx =
    {
      b;
      rng;
      locks;
      guarded = Array.of_list !guarded;
      free = Array.of_list !free;
      labels = 0;
    }
  in
  let publish =
    if nthreads >= 3 && Rng.int rng 3 > 0 then
      Some
        {
          pub = Builder.var b "pub";
          flag = Builder.var b "pubflag";
          handshake = Builder.lock b "h";
          pair =
            Array.init (nthreads - 1) (fun i ->
                Builder.lock b (Printf.sprintf "g%d" (i + 1)));
        }
    else None
  in
  let publish_items t =
    match publish with
    | None -> []
    | Some pb ->
      if t = 0 then
        let writes =
          [
            Builder.write pb.pub (Builder.i (Rng.int ctx.rng 64));
            Builder.write pb.pub (Builder.i (Rng.int ctx.rng 64));
          ]
        in
        let nested =
          Array.fold_right (fun m body -> Builder.sync m body) pb.pair writes
        in
        Builder.atomic (Builder.label ctx.b "gen.pub.publish") nested
        :: Builder.sync pb.handshake
             [ Builder.write pb.flag (Builder.i 1) ]
      else begin
        let rf = Builder.fresh_reg ctx.b in
        let r1 = Builder.fresh_reg ctx.b in
        let r2 = Builder.fresh_reg ctx.b in
        Builder.sync pb.handshake [ Builder.read rf pb.flag ]
        @ [
            Builder.if_
              Builder.(r rf ==: i 1)
              [
                Builder.atomic
                  (Builder.label ctx.b (Printf.sprintf "gen.pub.read%d" t))
                  (Builder.sync
                     pb.pair.(t - 1)
                     [ Builder.read r1 pb.pub; Builder.read r2 pb.pub ]);
              ]
              [];
          ]
      end
  in
  Builder.threads b nthreads (fun t ->
      let private_var = Builder.var ctx.b (Printf.sprintf "p%d" t) in
      let items =
        List.concat
          (List.init config.top_items (fun _ ->
               match Rng.int ctx.rng 3 with
               | 0 -> [ atomic_block ctx ~depth:2 ]
               | 1 -> random_stmts ctx ~depth:1 (1 + Rng.int ctx.rng 2)
               | _ ->
                 [
                   Builder.atomic (fresh_label ctx)
                     [ access ctx private_var; access ctx private_var ];
                 ]))
      in
      (* Every thread carries at least one atomic block so each program
         exercises the reduction check. *)
      publish_items t @ (atomic_block ctx ~depth:2 :: items));
  (* Read-shared snapshot + one-way publish: a few fresh cells, each
     written once by its own dedicated writer thread; one collector
     thread reading every cell in a single atomic block; and a data/flag
     pair written in order by one thread and checked flag-then-data by
     one gate reader. Both multi-read blocks race (Lipton rejects them —
     two racy reads are two non-movers) yet are serializable on every
     execution, so only the conflict-graph cycle-freedom rule proves
     them. The shape is deliberately rigid: the cells live outside the
     guarded/free pools and the extra threads carry nothing random, so
     no generated item can add a second reader block over the same cells
     or a single writer covering two of them — the two perturbations
     that make the pattern genuinely violable. *)
  let snapshot = Rng.int rng 3 > 0 in
  if snapshot then begin
    let ncells = 2 + Rng.int rng 2 in
    let cells =
      Array.init ncells (fun i -> Builder.var b (Printf.sprintf "snap%d" i))
    in
    Array.iteri
      (fun i c ->
        Builder.thread b
          [
            Builder.work (1 + (i mod 3));
            Builder.write c (Builder.i (Rng.int rng 64));
          ])
      cells;
    Builder.thread b
      (let regs = Array.map (fun _ -> Builder.fresh_reg b) cells in
       [
         Builder.work 2;
         Builder.atomic
           (Builder.label b "gen.snap.collect")
           (Array.to_list
              (Array.mapi (fun i reg -> Builder.read reg cells.(i)) regs));
       ]);
    let data = Builder.var b "snapdata" in
    let flag = Builder.var b "snapflag" in
    Builder.thread b
      [
        Builder.write data (Builder.i (Rng.int rng 64));
        Builder.write flag (Builder.i 1);
      ];
    Builder.thread b
      (let f = Builder.fresh_reg b in
       let d = Builder.fresh_reg b in
       [
         Builder.work 1;
         Builder.atomic
           (Builder.label b "gen.snap.check")
           [ Builder.read f flag; Builder.read d data ];
       ])
  end;
  (* Latent violations: shapes serializable under plain round-robin (and
     under any single bounded scheduler pause), yet genuinely violable
     under a targeted interleaving — the prediction pass's raison
     d'être. Rigid like the snapshot family: dedicated fresh variables,
     no random items, so the latency argument survives generation.

     - Deferred publish ("scan"): a writer updates [latb] then [lata]
       with a long silent gap between the two writes; a reader snapshots
       both in one atomic block. Round-robin orders the first read after
       the first write (the writer thread comes first), killing the
       cycle's read→write edge; the silent gap outlasts any bounded
       adversarial pause window. The violation needs read latb ≺ write
       latb and write lata ≺ read lata — exactly the static witness
       schedule.

     - Write skew: two symmetric read-both/write-one atomics; the second
       thread starts after a yield stagger longer than the first block,
       so round-robin runs them serially. Violable when either block
       fully interleaves the other's read/write window. *)
  let latent = Rng.int rng 3 > 0 in
  if latent then begin
    let lata = Builder.var b "lata" in
    let latb = Builder.var b "latb" in
    Builder.thread b
      [
        Builder.write latb (Builder.i (Rng.int rng 64));
        Builder.work 40_000;
        Builder.write lata (Builder.i (Rng.int rng 64));
      ];
    Builder.thread b
      (let r1 = Builder.fresh_reg b in
       let r2 = Builder.fresh_reg b in
       [
         Builder.atomic
           (Builder.label b "gen.lat.scan")
           [ Builder.read r1 latb; Builder.read r2 lata ];
       ]);
    let skewu = Builder.var b "skewu" in
    let skewv = Builder.var b "skewv" in
    Builder.thread b
      (let r1 = Builder.fresh_reg b in
       let r2 = Builder.fresh_reg b in
       [
         Builder.atomic
           (Builder.label b "gen.lat.skew1")
           [
             Builder.read r1 skewu;
             Builder.read r2 skewv;
             Builder.write skewu Builder.(r r2 +: i 1);
           ];
       ]);
    Builder.thread b
      (let r1 = Builder.fresh_reg b in
       let r2 = Builder.fresh_reg b in
       List.init 5 (fun _ -> Builder.yield)
       @ [
           Builder.atomic
             (Builder.label b "gen.lat.skew2")
             [
               Builder.read r1 skewu;
               Builder.read r2 skewv;
               Builder.write skewv Builder.(r r1 +: i 1);
             ];
         ])
  end;
  (* Tid-dispatch: [1 + nreaders] replicas of one identical body that
     switches roles on the thread-id register. The writer replica
     atomically bumps a shared accumulator and then publishes each
     reader's cell pair with two unary writes in REVERSE order (cellB
     before cellA); reader [k] atomically snapshots its pair cellA-then-
     cellB. Without tid specialization every replica statically carries
     every arm, so the accumulator self-races across replicas and the
     duplicated scan regions close a torn-snapshot cycle — May_violate.
     With r0 pinned per replica all foreign arms die: the accumulator
     becomes thread-local (update proves by Lipton) and each scan's only
     remaining partner is the single writer, whose reversed write order
     leaves no cycle back into the scan (cycle-free). Dynamically a torn
     snapshot would need read cellB ≺ write cellB yet write cellA ≺ read
     cellA, impossible given the program orders — serializable on every
     schedule, so the soundness gate stays green. *)
  let dispatch = Rng.int rng 3 > 0 in
  if dispatch then begin
    let base = Builder.thread_count b in
    let nreaders = 1 + Rng.int rng 2 in
    let acc = Builder.var b "dacc" in
    let cella =
      Array.init nreaders (fun k -> Builder.var b (Printf.sprintf "dca%d" k))
    in
    let cellb =
      Array.init nreaders (fun k -> Builder.var b (Printf.sprintf "dcb%d" k))
    in
    let update = Builder.label b "gen.disp.update" in
    let scan = Builder.label b "gen.disp.scan" in
    let rt = Builder.fresh_reg b in
    let ra = Builder.fresh_reg b in
    let rb = Builder.fresh_reg b in
    let payload = Array.init nreaders (fun _ -> 1 + Rng.int rng 63) in
    let writer_role =
      Builder.atomic update
        [ Builder.read rt acc; Builder.write acc Builder.(r rt +: i 1) ]
      :: List.concat
           (List.init nreaders (fun k ->
                [
                  Builder.write cellb.(k) (Builder.i payload.(k));
                  Builder.write cella.(k) (Builder.i payload.(k));
                ]))
    in
    let reader_role k =
      [
        Builder.atomic scan
          [ Builder.read ra cella.(k); Builder.read rb cellb.(k) ];
      ]
    in
    let rec arms k =
      if k > nreaders then []
      else
        [
          Builder.if_
            Builder.(r Ast.tid_reg ==: i (base + k))
            (if k = 0 then writer_role else reader_role (k - 1))
            (arms (k + 1));
        ]
    in
    let body = arms 0 in
    Builder.threads b (1 + nreaders) (fun _ -> body)
  end;
  let families =
    (if publish <> None then [ "publication" ] else [])
    @ (if snapshot then [ "snapshot" ] else [])
    @ (if latent then [ "latent" ] else [])
    @ if dispatch then [ "dispatch" ] else []
  in
  let families = if families = [] then [ "core" ] else families in
  (Builder.program b, { families })

let generate ?config rng = fst (generate_info ?config rng)
