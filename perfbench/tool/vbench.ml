(* Helper executable of the benchmark driven by perfbench/run.py.

   It does the three jobs run.py cannot do by running the velodrome
   command line:

   - generate the seeded inputs (workload recordings merged into one
     stream, cycle-dense Gen traces, the serve corpus);
   - compute the independent references the timed passes are checked
     against (AeroDrome verdicts, workload ground truth and event counts);
   - the traced run: call each layer's public functions directly, wrap
     every call in a span, and report per-layer timings and counts.

   Usage:
     vbench gen-clean SEED SIZE OUT.velb
     vbench gen-dense SEED STEPS OUT.velb
     vbench gen-serve SEED COUNT DENSE_STEPS DIR
     vbench reference FILE...
     vbench plan SEED SIZE [WORKLOAD...]
     vbench trace SPANS_OUT WORK_DIR JOBS SERVE_DIR --program W:SIZE:SEED... FILE...

   Every result is printed as one JSON document on stdout. *)

open Velodrome_trace
open Velodrome_analysis
module Workload = Velodrome_workloads.Workload
module Run = Velodrome_sim.Run
module Statics = Velodrome_statics.Statics
module Engine = Velodrome_core.Engine
module Aero = Velodrome_core.Aero
module Atomizer = Velodrome_atomizer.Atomizer
module Source = Velodrome_stream.Source
module Driver = Velodrome_stream.Driver
module Serve = Velodrome_serve.Serve
module Json = Velodrome_util.Json
module Rng = Velodrome_util.Rng
module Mclock = Velodrome_util.Mclock

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("vbench: " ^ s); exit 2) fmt

let size_of_string = function
  | "small" -> Workload.Small
  | "medium" -> Workload.Medium
  | "large" -> Workload.Large
  | s -> die "unknown size %S" s

let workload name =
  match Workload.find name with
  | Some w -> w
  | None -> die "unknown workload %S" name

let int_arg s = match int_of_string_opt s with Some n -> n | None -> die "not an integer: %S" s

(* --- inputs ------------------------------------------------------------- *)

(* Exactly what [velodrome record W FILE --size SIZE --seed SEED] does. *)
let record (w : Workload.t) size seed =
  let program = w.Workload.build size in
  let config =
    { Run.default_config with policy = Run.Random seed; record_trace = true }
  in
  let res = Run.run ~config program [] in
  (program.Velodrome_sim.Ast.names, Option.get res.Run.trace)

(* Concatenate recordings into one trace. Each part gets its own thread
   ids and its names are prefixed with the part's name, so the parts share
   no variable, lock or label and the verdicts of the whole are the union
   of the verdicts of the parts. *)
let merge parts =
  let m = Names.create () in
  let base = ref 0 in
  let arrays =
    List.map
      (fun (prefix, names, trace) ->
        let memo intern name_of =
          let tbl = Hashtbl.create 64 in
          fun id ->
            match Hashtbl.find_opt tbl id with
            | Some id' -> id'
            | None ->
              let id' = intern m (prefix ^ "/" ^ name_of names id) in
              Hashtbl.replace tbl id id';
              id'
        in
        let var =
          memo
            (fun m s -> Names.var m s)
            (fun n v -> Names.var_name n v)
        in
        let var x =
          let x' = var x in
          if Names.is_volatile names x then Names.set_volatile m x';
          x'
        in
        let lock = memo (fun m s -> Names.lock m s) Names.lock_name in
        let label = memo (fun m s -> Names.label m s) Names.label_name in
        let b = !base in
        let tid t = Ids.Tid.of_int (b + Ids.Tid.to_int t) in
        let ops = Trace.ops trace in
        let top = ref (-1) in
        let remapped =
          Array.map
            (fun op ->
              top := max !top (Ids.Tid.to_int (Op.tid op));
              match op with
              | Op.Read (t, x) -> Op.Read (tid t, var x)
              | Op.Write (t, x) -> Op.Write (tid t, var x)
              | Op.Acquire (t, l) -> Op.Acquire (tid t, lock l)
              | Op.Release (t, l) -> Op.Release (tid t, lock l)
              | Op.Begin (t, l) -> Op.Begin (tid t, label l)
              | Op.End t -> Op.End (tid t))
            ops
        in
        base := b + !top + 1;
        remapped)
      parts
  in
  (m, Trace.of_array (Array.concat arrays))

(* The ROADMAP's synthetic-dense: 8 threads hammering 2 variables under
   1 lock, blocks nested up to depth 3. Nearly every transaction closes a
   cycle, so the engine lives on its violation path. *)
let dense_trace ~seed ~steps =
  let cfg =
    {
      Gen.default with
      threads = 8;
      vars = 2;
      locks = 1;
      labels = 8;
      steps;
      max_depth = 3;
    }
  in
  let names = Names.create () in
  for i = 0 to cfg.Gen.vars - 1 do
    ignore (Names.var names (Printf.sprintf "x%d" i))
  done;
  for i = 0 to cfg.Gen.locks - 1 do
    ignore (Names.lock names (Printf.sprintf "m%d" i))
  done;
  for i = 0 to cfg.Gen.labels - 1 do
    ignore (Names.label names (Printf.sprintf "Dense.b%d" i))
  done;
  (names, Gen.run (Rng.create seed) cfg)

let write names trace path =
  if Filename.check_suffix path ".velb" then Trace_codec.write_file names trace path
  else Trace_io.write_file names trace path

let gen_clean seed size out =
  let size = size_of_string size in
  let parts =
    List.map
      (fun (w : Workload.t) ->
        let names, trace = record w size seed in
        (w.Workload.name, names, trace))
      Workload.all
  in
  let names, trace = merge parts in
  write names trace out;
  print_endline
    (Json.to_string (Json.Obj [ ("events", Json.Int (Trace.length trace)) ]))

let gen_dense seed steps out =
  let names, trace = dense_trace ~seed ~steps in
  write names trace out;
  print_endline
    (Json.to_string (Json.Obj [ ("events", Json.Int (Trace.length trace)) ]))

(* The serve corpus of the traced run: short recordings of the paper workloads at small and
   medium size, alternately text and binary, with one stream in eight a
   cycle-dense Gen trace (in both formats). The mix is the same for every
   seed; the seed picks each stream's schedule. *)
let gen_serve seed count dense_steps dir =
  let rng = Rng.create seed in
  let all = Array.of_list Workload.all in
  let events = ref 0 and recorded = ref 0 in
  for i = 0 to count - 1 do
    let stream_seed = Rng.int rng 1_000_000 in
    let names, trace =
      if i mod 16 = 3 || i mod 16 = 10 then dense_trace ~seed:stream_seed ~steps:dense_steps
      else begin
        let k = !recorded in
        incr recorded;
        let size = if k mod 3 = 2 then Workload.Medium else Workload.Small in
        record all.(k mod Array.length all) size stream_seed
      end
    in
    let ext = if i mod 2 = 0 then "velb" else "trace" in
    write names trace (Filename.concat dir (Printf.sprintf "s%04d.%s" i ext));
    events := !events + Trace.length trace
  done;
  print_endline
    (Json.to_string
       (Json.Obj [ ("streams", Json.Int count); ("events", Json.Int !events) ]))

(* --- references --------------------------------------------------------- *)

(* AeroDrome (vector clocks) shares no code with the graph engine the
   command runs, so its verdict and first violating event are an
   independent reference for check-trace's output. *)
let reference paths =
  let docs =
    List.map
      (fun path ->
        Source.with_file path (fun src ->
            let a = Aero.create src.Source.names in
            let n = ref 0 in
            src.Source.iter (fun e ->
                Aero.on_event a e;
                incr n);
            Aero.finish a;
            Json.Obj
              [
                ("file", Json.String path);
                ("events", Json.Int !n);
                ("has_error", Json.Bool (Aero.has_error a));
                ( "first_error_index",
                  match Aero.first_error_index a with
                  | Some i -> Json.Int i
                  | None -> Json.Null );
              ]))
      paths
  in
  print_endline (Json.to_string (Json.List docs))

(* The program workload's plan: per workload, the ground truth and the
   event count [run W --size SIZE --seed SEED] must report (the schedule
   does not depend on the back-ends unless scheduling is adversarial). *)
let plan seed size names =
  let size = size_of_string size in
  let doc =
    Json.Obj
      (List.map
         (fun name ->
           let w = workload name in
           let config = { Run.default_config with policy = Run.Random seed } in
           let res = Run.run ~config (w.Workload.build size) [] in
           ( name,
             Json.Obj
               [
                 ("events", Json.Int res.Run.events);
                 ( "non_atomic",
                   Json.List
                     (List.filter_map
                        (fun (g : Workload.ground_truth) ->
                          if g.Workload.atomic then None
                          else Some (Json.String g.Workload.label))
                        w.Workload.methods) );
               ] ))
         (if names = [] then List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all
          else names))
  in
  print_endline (Json.to_string doc)

(* --- traced run ----------------------------------------------------------- *)

(* Spans are kept in memory and written out at the end. [book_ns] is the
   time the recorder itself spends between the clock reads, i.e. the
   tracing overhead. *)
type span = {
  id : int;
  name : string;
  parent : int;
  start_ns : int64;
  end_ns : int64;
}

let spans = ref []
let stack = ref []
let next_id = ref 0
let book_ns = ref 0L

let span name f =
  let b0 = Mclock.now_ns () in
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let t0 = Mclock.now_ns () in
  let r = f () in
  let t1 = Mclock.now_ns () in
  stack := List.tl !stack;
  spans :=
    { id; name; parent; start_ns = t0; end_ns = t1 }
    :: !spans;
  book_ns :=
    Int64.add !book_ns
      (Int64.add (Int64.sub t0 b0) (Int64.sub (Mclock.now_ns ()) t1));
  r

let ns_of s = Int64.to_float (Int64.sub s.end_ns s.start_ns)

(* Sum of the durations of all spans named [name]. *)
let total name =
  List.fold_left (fun acc s -> if s.name = name then acc +. ns_of s else acc) 0. !spans

let median xs = Velodrome_util.Stats.median (Array.of_list xs)

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let alloc_bytes f =
  let b0 = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. b0)

(* One trace input: the native file plus a copy in the other format, so
   decode and text parsing are measured on every workload. *)
type input = {
  native : string;
  velb : string;
  text : string;
  events : int;
  velb_bytes : int;
}

let prepare_input work k native =
  let names, trace =
    if Trace_codec.is_binary_file native then Trace_codec.read_file native
    else Trace_io.read_file native
  in
  let velb = Filename.concat work (Printf.sprintf "in%04d.velb" k) in
  span "trace.encode" (fun () -> Trace_codec.write_file names trace velb);
  let text =
    if Trace_codec.is_binary_file native then begin
      let p = Filename.concat work (Printf.sprintf "in%04d.trace" k) in
      Trace_io.write_file names trace p;
      p
    end
    else native
  in
  let velb_bytes = In_channel.with_open_bin velb In_channel.length |> Int64.to_int in
  { native; velb; text; events = Trace.length trace; velb_bytes }

let materialize path =
  Source.with_file path (fun src ->
      let acc = ref [] in
      src.Source.iter (fun e -> acc := e :: !acc);
      (src.Source.names, Array.of_list (List.rev !acc)))

let empty_backend names = Backend.make (module Empty) names

type file_counts = {
  mutable nodes_allocated : int;
  mutable nodes_max_alive : int;
  mutable cycles_found : int;
  mutable warnings_built : int;
  mutable warnings_printed : int;
  mutable dot_bytes : int;
  mutable engine_alloc : float;
  mutable atomizer_alloc : float;
}

let fresh_counts () =
  {
    nodes_allocated = 0;
    nodes_max_alive = 0;
    cycles_found = 0;
    warnings_built = 0;
    warnings_printed = 0;
    dot_bytes = 0;
    engine_alloc = 0.;
    atomizer_alloc = 0.;
  }

(* check-trace --stream, layer by layer: decode (or parse), the driver
   loop, the engine, the Atomizer and the warning report. *)
let measure_input counts (inp : input) =
  let n_velb =
    span "trace.decode" (fun () ->
        In_channel.with_open_bin inp.velb (fun ic ->
            let r = Trace_codec.reader_of_channel ic in
            let n = ref 0 in
            Trace_codec.iter_events r (fun _ -> incr n);
            !n))
  in
  let n_text =
    span "trace.text_parse" (fun () ->
        Source.with_file inp.text (fun src ->
            let n = ref 0 in
            src.Source.iter (fun _ -> incr n);
            !n))
  in
  let names, events = materialize inp.native in
  (* The driver loop alone: its source replays the decoded events, so no
     decoding happens inside the span. *)
  let n_driver =
    span "stream.driver" (fun () ->
        let src =
          { Source.names; length = Some (Array.length events);
            iter = (fun f -> Array.iter f events) }
        in
        fst (Driver.run [ empty_backend names ] src))
  in
  if n_velb <> inp.events || n_text <> inp.events || n_driver <> inp.events then
    die "%s: event counts disagree across decoders" inp.native;
  let eng, engine_alloc =
    span "core.engine" (fun () ->
        alloc_bytes (fun () ->
            let eng = Engine.create names in
            Array.iter (Engine.on_event eng) events;
            Engine.finish eng;
            eng))
  in
  let atom, atomizer_alloc =
    span "atomizer" (fun () ->
        alloc_bytes (fun () ->
            let a = Atomizer.create names in
            Array.iter (Atomizer.on_event a) events;
            Atomizer.finish a;
            a))
  in
  let built = Engine.warnings eng @ Atomizer.warnings atom in
  let printed =
    span "analysis.render" (fun () ->
        let buf = Buffer.create 4096 in
        let ppf = Format.formatter_of_buffer buf in
        let ws = Warning.dedup_by_label built in
        Format.fprintf ppf "%s: %d operations@." inp.native inp.events;
        if ws = [] then Format.fprintf ppf "No warnings.@."
        else begin
          Format.fprintf ppf "%d warning(s):@." (List.length ws);
          List.iter (fun w -> Format.fprintf ppf "  %a@." (Warning.pp names) w) ws
        end;
        List.length ws)
  in
  counts.nodes_allocated <- counts.nodes_allocated + Engine.nodes_allocated eng;
  counts.nodes_max_alive <- max counts.nodes_max_alive (Engine.nodes_max_alive eng);
  counts.cycles_found <- counts.cycles_found + Engine.cycles_found eng;
  counts.warnings_built <- counts.warnings_built + List.length built;
  counts.warnings_printed <- counts.warnings_printed + printed;
  counts.dot_bytes <-
    counts.dot_bytes
    + List.fold_left
        (fun acc (w : Warning.t) ->
          acc + match w.Warning.dot with Some d -> String.length d | None -> 0)
        0 (Engine.warnings eng);
  counts.engine_alloc <- counts.engine_alloc +. engine_alloc;
  counts.atomizer_alloc <- counts.atomizer_alloc +. atomizer_alloc

let serve_backends names =
  [ Backend.make (Engine.backend ()) names ]

(* serve --jobs N with check-trace's rendering, output discarded. *)
let serve_run name jobs paths =
  let results = ref [] in
  let stats =
    span name (fun () ->
        Serve.run ~jobs ~backends:serve_backends
          ~on_result:(fun r -> results := r :: !results)
          paths)
  in
  (stats, !results)

(* A counting pass-through, to see how many events the static filter
   forwards to the engine. *)
let counting forwarded inner =
  let module C = struct
    type t = Backend.packed

    let name = "count"
    let create _ = inner
    let on_event b e =
      incr forwarded;
      Backend.on_event b e
    let pause_hint = Backend.pause_hint
    let finish = Backend.finish
    let warnings = Backend.warnings
  end in
  Backend.make (module C) (Names.create ())

type program_counts = {
  mutable sim_events : int;
  mutable race_pairs : int;
  mutable proved_blocks : int;
  mutable filter_events : int;
  mutable filter_forwarded : int;
}

let default_backends names =
  [
    Backend.make (Engine.backend ()) names;
    Backend.make (Atomizer.backend ()) names;
  ]

(* analyze W --size SIZE, then run W --size SIZE --seed SEED, layer by
   layer, plus the probes behind sim.slowdown and statics.values_ms. *)
let measure_program pc (w, size, seed) =
  (* analyze and run each build the program and analyze checks it. *)
  let build () = span "workloads.build" (fun () -> (workload w).Workload.build size) in
  let program = build () in
  (match span "lang.check" (fun () -> Velodrome_lang.Check.check_program program) with
  | Ok () -> ()
  | Error _ -> die "%s: ill-formed program" w);
  let st = span "statics.analyze" (fun () -> Statics.analyze ~values:true program) in
  ignore (span "statics.analyze_novalues" (fun () -> Statics.analyze ~values:false program));
  span "statics.report" (fun () ->
      let buf = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buf in
      Format.fprintf ppf "%a@." (fun ppf st -> Statics.pp_human ppf st) st);
  let program = build () in
  let names = program.Velodrome_sim.Ast.names in
  let config = { Run.default_config with policy = Run.Random seed } in
  let res = span "sim.run" (fun () -> Run.run ~config program (default_backends names)) in
  ignore (span "sim.run_bare" (fun () -> Run.run ~config program []));
  span "analysis.render_run" (fun () ->
      let buf = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buf in
      let ws = Warning.dedup_by_label res.Run.warnings in
      Format.fprintf ppf "%s: %d events, %d pauses@." w res.Run.events res.Run.pauses;
      List.iter (fun wr -> Format.fprintf ppf "  %a@." (Warning.pp names) wr) ws);
  pc.sim_events <- pc.sim_events + res.Run.events;
  pc.race_pairs <- pc.race_pairs + Statics.race_pair_count st;
  pc.proved_blocks <- pc.proved_blocks + Statics.proved_count st;
  let _, trace = record (workload w) size seed in
  let events = Event.of_ops (Trace.to_list trace) in
  let proved, suppress_var = Statics.filter_predicates st in
  let forwarded = ref 0 in
  span "analysis.static_filter" (fun () ->
      let b =
        Filters.static_atomic ~proved ~suppress_var
          (counting forwarded (Backend.make (Engine.backend ()) names))
      in
      List.iter (Backend.on_event b) events;
      Backend.finish b);
  pc.filter_events <- pc.filter_events + List.length events;
  pc.filter_forwarded <- pc.filter_forwarded + !forwarded

(* W:SIZE:SEED, where W = all names every workload. *)
let parse_programs spec =
  match String.split_on_char ':' spec with
  | [ "all"; size; seed ] ->
    List.map
      (fun (w : Workload.t) -> (w.Workload.name, size_of_string size, int_arg seed))
      Workload.all
  | [ w; size; seed ] -> [ (w, size_of_string size, int_arg seed) ]
  | _ -> die "bad program spec %S (want W:SIZE:SEED)" spec

let trace_cmd spans_out work jobs serve_dir args =
  let rec split progs files = function
    | "--program" :: p :: rest -> split (List.rev_append (parse_programs p) progs) files rest
    | f :: rest -> split progs (f :: files) rest
    | [] -> (List.rev progs, List.rev files)
  in
  let programs, files = split [] [] args in
  if programs = [] then die "trace needs at least one --program";
  let wall0 = Mclock.now_ns () in
  (* The program workload has no input files: check its recorded runs. *)
  let is_program = files = [] in
  let files =
    if not is_program then files
    else
      List.mapi
        (fun k (w, size, seed) ->
          let names, trace = record (workload w) size seed in
          let p = Filename.concat work (Printf.sprintf "prog%02d.velb" k) in
          Trace_codec.write_file names trace p;
          p)
        programs
  in
  let inputs = List.mapi (prepare_input work) files in
  let corpus =
    match Serve.expand_targets [ serve_dir ] with
    | Ok paths -> paths
    | Error msg -> die "%s" msg
  in
  let fc = fresh_counts () in
  let pc =
    {
      sim_events = 0;
      race_pairs = 0;
      proved_blocks = 0;
      filter_events = 0;
      filter_forwarded = 0;
    }
  in
  let sstats, results =
    span "traced" (fun () ->
        List.iter (measure_input fc) inputs;
        let serve = serve_run "serve.run" jobs corpus in
        List.iter (measure_program pc) programs;
        serve)
  in
  let serve1, _ = serve_run "serve.run_jobs1" 1 corpus in
  let wall_ns = Int64.to_float (Int64.sub (Mclock.now_ns ()) wall0) in
  let layer = total in
  let events = List.fold_left (fun acc i -> acc + i.events) 0 inputs in
  let fevents = float_of_int (max 1 events) in
  let decode = layer "trace.decode" in
  let ms x = Int64.to_float x /. 1e6 in
  let waits = List.map (fun (r : Serve.result) -> ms r.Serve.wait_ns) results in
  let checks = List.map (fun (r : Serve.result) -> ms r.Serve.check_ns) results in
  let sum = List.fold_left ( +. ) 0. in
  let fsim = float_of_int (max 1 pc.sim_events) in
  let per_event v = v /. fevents in
  let metrics =
    [
      ("trace.decode_ns_per_event", per_event decode);
      ("trace.text_parse_ns_per_event", per_event (layer "trace.text_parse"));
      ("trace.encode_ns_per_event", per_event (layer "trace.encode"));
      ( "trace.velb_bytes_per_event",
        per_event (float_of_int (List.fold_left (fun acc i -> acc + i.velb_bytes) 0 inputs)) );
      ("stream.driver_ns_per_event", per_event (layer "stream.driver"));
      ("core.engine_ns_per_event", per_event (layer "core.engine"));
      ("core.engine_alloc_bytes_per_event", per_event fc.engine_alloc);
      ("core.nodes_allocated", float_of_int fc.nodes_allocated);
      ("core.nodes_max_alive", float_of_int fc.nodes_max_alive);
      ("core.cycles_found", float_of_int fc.cycles_found);
      ("core.warnings_built", float_of_int fc.warnings_built);
      ("core.dot_bytes", float_of_int fc.dot_bytes);
      ("atomizer.ns_per_event", per_event (layer "atomizer"));
      ("atomizer.alloc_bytes_per_event", per_event fc.atomizer_alloc);
      ( "analysis.render_ns",
        layer (if is_program then "analysis.render_run" else "analysis.render") );
      ( "analysis.warnings_printed_ratio",
        float_of_int fc.warnings_printed /. float_of_int (max 1 fc.warnings_built) );
      ( "analysis.static_filter_ns_per_event",
        layer "analysis.static_filter" /. float_of_int (max 1 pc.filter_events) );
      ( "analysis.static_filter_forward_ratio",
        float_of_int pc.filter_forwarded /. float_of_int (max 1 pc.filter_events) );
      ("sim.ns_per_event", layer "sim.run_bare" /. fsim);
      ("sim.slowdown", layer "sim.run" /. layer "sim.run_bare");
      ("statics.analyze_ms", layer "statics.analyze" /. 1e6);
      ( "statics.values_ms",
        (layer "statics.analyze" -. layer "statics.analyze_novalues") /. 1e6 );
      ("statics.race_pairs", float_of_int pc.race_pairs);
      ("statics.proved_blocks", float_of_int pc.proved_blocks);
      ("serve.wait_ms_p50", median waits);
      ("serve.wait_ms_p95", percentile 0.95 waits);
      ("serve.check_ms_p50", median checks);
      ("serve.check_ms_p95", percentile 0.95 checks);
      ( "serve.busy_ratio",
        sum checks /. (float_of_int sstats.Serve.jobs *. ms sstats.Serve.elapsed_ns) );
      ("serve.max_resident", float_of_int sstats.Serve.max_resident);
      ( "serve.speedup",
        Int64.to_float serve1.Serve.elapsed_ns /. Int64.to_float sstats.Serve.elapsed_ns );
    ]
  in
  let layer_names =
    [
      "trace.decode"; "trace.text_parse"; "stream.driver"; "core.engine"; "atomizer";
      "analysis.render"; "analysis.render_run"; "serve.run"; "workloads.build"; "lang.check"; "statics.analyze"; "statics.analyze_novalues";
      "statics.report"; "sim.run"; "sim.run_bare";
    ]
  in
  let self_ns = List.map (fun n -> (n, layer n)) layer_names in
  let all_spans = List.rev !spans in
  Out_channel.with_open_bin spans_out (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"parent\": %d, \"start_ns\": %Ld, \"end_ns\": %Ld}\n"
            s.id s.name s.parent s.start_ns s.end_ns)
        all_spans);
  let obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("events", Json.Int events);
            ("spans", Json.Int (List.length all_spans));
            ("wall_ns", Json.Float wall_ns);
            ("book_ns", Json.Float (Int64.to_float !book_ns));
            ("self_ns", obj self_ns);
            ("metrics", obj metrics);
          ]))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen-clean"; seed; size; out ] -> gen_clean (int_arg seed) size out
  | [ "gen-dense"; seed; steps; out ] -> gen_dense (int_arg seed) (int_arg steps) out
  | [ "gen-serve"; seed; count; dense_steps; dir ] ->
    gen_serve (int_arg seed) (int_arg count) (int_arg dense_steps) dir
  | "reference" :: (_ :: _ as files) -> reference files
  | "plan" :: seed :: size :: names -> plan (int_arg seed) size names
  | "trace" :: spans_out :: work :: jobs :: serve_dir :: rest ->
    trace_cmd spans_out work (int_arg jobs) serve_dir rest
  | _ ->
    prerr_endline
      "usage: vbench (gen-clean SEED SIZE OUT | gen-dense SEED STEPS OUT | \
       gen-serve SEED COUNT DENSE_STEPS DIR | reference FILE... | \
       plan SEED SIZE [WORKLOAD...] | \
       trace SPANS WORK JOBS SERVE_DIR --program W:SIZE:SEED... FILE...)";
    exit 2
