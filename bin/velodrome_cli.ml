(* The velodrome command-line tool.

   Subcommands:
   - list            benchmark workloads and their ground truth
   - run             run a workload under selected analyses
   - check           parse, statically check and analyze a .vel file
   - analyze         static pre-pass: Lipton reduction, conflict graph,
                     value facts, races, predictions and the gates
   - predict         witness-guided predictive atomicity (forced replays)
   - races           whole-program pairwise static race detection
   - print           print a workload program in .vel form
   - record          record a workload (or .vel program) trace to a file
   - check-trace     replay a recorded trace (text or binary, --stream)
   - serve           check many trace streams on a pool of domains
   - convert         convert traces between the text and binary formats
   - minimize        shrink a non-serializable trace to a minimal witness
   - fuzz            differential fuzzing of the engines and the oracle
   - table1          regenerate Table 1 (slowdowns, node statistics)
   - table2          regenerate Table 2 (warning classification)
   - study           adversarial-scheduling studies (coverage, injection)

   Trace files come in two formats, auto-detected on input: the textual
   format of Trace_io and the compact binary format of Trace_codec
   (written when the file name ends in .velb, or with convert).

   Exit codes, uniform across subcommands: 0 = clean (no warnings, every
   block proved), 1 = violations reported / blocks left unproved / a
   failed soundness gate, 2 = usage errors, ill-formed programs and
   corrupt trace files. *)

open Cmdliner
open Velodrome_analysis
open Velodrome_workloads

let size_conv =
  let parse = function
    | "small" -> Ok Workload.Small
    | "medium" -> Ok Workload.Medium
    | "large" -> Ok Workload.Large
    | s -> Error (`Msg (Printf.sprintf "unknown size %S" s))
  in
  let print ppf s =
    Format.fprintf ppf "%s"
      (match s with
      | Workload.Small -> "small"
      | Workload.Medium -> "medium"
      | Workload.Large -> "large")
  in
  Arg.conv (parse, print)

let size_arg =
  Arg.(
    value
    & opt size_conv Workload.Medium
    & info [ "size" ] ~docv:"SIZE" ~doc:"Workload size: small, medium, large.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Scheduler seed.")

let adversarial_arg =
  Arg.(
    value & flag
    & info [ "adversarial" ]
        ~doc:"Enable Atomizer-guided adversarial scheduling (Section 5).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"Output format: $(b,human) or $(b,json).")

let exits =
  [
    Cmd.Exit.info 0
      ~doc:"on a clean result: no warnings, every atomic block proved.";
    Cmd.Exit.info 1
      ~doc:
        "when warnings were reported, a block could not be proved atomic, \
         or the soundness gate failed.";
    Cmd.Exit.info 2
      ~doc:"on usage errors, ill-formed programs and corrupt trace files.";
    Cmd.Exit.info Cmd.Exit.internal_error ~doc:"on unexpected internal errors.";
  ]

(* Violations exit 1, so scripts and CI can gate on the status alone. *)
let exit_violations = function [] -> () | _ :: _ -> exit 1

(* The one back-end name table: every subcommand that takes -a resolves
   names here, and the --analysis help is generated from it. *)
let backend_table =
  [
    ("velodrome", Backend.make (Velodrome_core.Engine.backend ()));
    ("velodrome-basic", Backend.make (Velodrome_core.Basic.backend ()));
    ("aero", Backend.make (Velodrome_core.Aero.backend ()));
    ("atomizer", Backend.make (Velodrome_atomizer.Atomizer.backend ()));
    ("eraser", Backend.make (Velodrome_eraser.Eraser.backend ()));
    ("hb", Backend.make (Velodrome_hbrace.Hbrace.backend ()));
    ("fasttrack", Backend.make (Velodrome_hbrace.Fasttrack.backend ()));
    ("2pl", Backend.make (Velodrome_twopl.Twopl.backend ()));
    ( "2pl-strict",
      Backend.make
        (Velodrome_twopl.Twopl.backend
           ~config:{ Velodrome_twopl.Twopl.strict = true } ()) );
    ("empty", Backend.make (module Empty));
  ]

(* Resolve -a names before any work starts: an unknown name is a usage
   error (exit 2), never a silently skipped and so falsely clean
   analysis. Returns one back-end constructor per name. *)
let resolve_analyses analyses =
  List.map
    (fun a ->
      match List.assoc_opt a backend_table with
      | Some make -> (a, make)
      | None ->
        Printf.eprintf "unknown analysis %S\n" a;
        exit 2)
    analyses

let make_backends resolved names =
  List.map (fun (_, make) -> make names) resolved

let analyses_arg_with default =
  Arg.(
    value
    & opt (list string) default
    & info [ "analysis"; "a"; "backend" ] ~docv:"LIST"
        ~doc:
          ("Comma-separated back-ends: "
          ^ String.concat ", " (List.map fst backend_table)
          ^ "."))

let analyses_arg = analyses_arg_with [ "velodrome"; "atomizer" ]

let spec_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "spec" ] ~docv:"FILE"
        ~doc:
          "Atomicity specification: which methods to check (see \
           Velodrome_harness.Spec).")

let load_spec = function
  | None -> Velodrome_harness.Spec.default
  | Some path -> (
    match Velodrome_harness.Spec.of_file path with
    | Ok s -> s
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 2)

let apply_spec spec names backends =
  List.map
    (Velodrome_harness.Exclude.methods
       ~excluded:(Velodrome_harness.Spec.excluded spec names))
    backends

let report_warnings names warnings =
  if warnings = [] then print_endline "No warnings."
  else begin
    Printf.printf "%d warning(s):\n" (List.length warnings);
    List.iter
      (fun w ->
        Format.printf "  %a@." (Warning.pp names) w)
      warnings
  end

let dump_dots dir names warnings =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  List.iteri
    (fun k (w : Warning.t) ->
      match Warning.graph w with
      | Some dot ->
        let label =
          match w.Warning.label with
          | Some l -> Velodrome_trace.Names.label_name names l
          | None -> Printf.sprintf "warning%d" k
        in
        let path =
          Filename.concat dir
            (Printf.sprintf "%s.dot"
               (String.map (function '.' | '/' -> '_' | c -> c) label))
        in
        let oc = open_out path in
        output_string oc dot;
        close_out oc;
        Printf.printf "  error graph written to %s\n" path
      | None -> ())
    warnings

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun w ->
        Printf.printf "%-11s %s\n" w.Workload.name w.Workload.description;
        let non_atomic = Workload.non_atomic_count w in
        let total = List.length w.Workload.methods in
        Printf.printf "            methods: %d (%d with real violations)\n"
          total non_atomic)
      Workload.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmark workloads.")
    Term.(const run $ const ())

(* --- run ----------------------------------------------------------------- *)

let run_cmd =
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see 'velodrome list').")
  in
  let dot_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"DIR" ~doc:"Write error graphs as dot files.")
  in
  let run name size seed adversarial analyses dot_dir spec =
    let analyses = resolve_analyses analyses in
    match Workload.find name with
    | None ->
      Printf.eprintf "unknown workload %S\n" name;
      exit 2
    | Some w ->
      let program = w.Workload.build size in
      let names = program.Velodrome_sim.Ast.names in
      let backends =
        make_backends analyses names |> apply_spec (load_spec spec) names
      in
      let config =
        {
          Velodrome_sim.Run.default_config with
          policy = Velodrome_sim.Run.Random seed;
          adversarial;
        }
      in
      let res = Velodrome_sim.Run.run ~config program backends in
      Printf.printf "%s: %d events, %d pauses%s\n" name
        res.Velodrome_sim.Run.events res.Velodrome_sim.Run.pauses
        (if res.Velodrome_sim.Run.deadlocked then " (DEADLOCK)" else "");
      let warnings = Warning.dedup_by_label res.Velodrome_sim.Run.warnings in
      report_warnings names warnings;
      Option.iter (fun dir -> dump_dots dir names warnings) dot_dir;
      exit_violations warnings
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under selected analyses." ~exits)
    Term.(
      const run $ workload $ size_arg $ seed_arg $ adversarial_arg
      $ analyses_arg $ dot_dir $ spec_arg)

(* --- check --------------------------------------------------------------- *)

let check_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A .vel program file.")
  in
  let run file seed adversarial analyses spec =
    let analyses = resolve_analyses analyses in
    match Velodrome_lang.Parser.parse_file file with
    | exception Velodrome_lang.Parser.Parse_error (m, l, c) ->
      Format.eprintf "%s: %a@." file Velodrome_lang.Parser.pp_error (m, l, c);
      exit 2
    | exception Velodrome_lang.Lexer.Lex_error (m, l, c) ->
      Printf.eprintf "%s: lex error at %d:%d: %s\n" file l c m;
      exit 2
    | program -> (
      match Velodrome_lang.Check.check_program program with
      | Error errs ->
        List.iter
          (fun e ->
            Format.eprintf "%s: %a@." file Velodrome_lang.Check.pp_error e)
          errs;
        exit 2
      | Ok () ->
        let names = program.Velodrome_sim.Ast.names in
        let backends =
          make_backends analyses names |> apply_spec (load_spec spec) names
        in
        let config =
          {
            Velodrome_sim.Run.default_config with
            policy = Velodrome_sim.Run.Random seed;
            adversarial;
          }
        in
        let res = Velodrome_sim.Run.run ~config program backends in
        Printf.printf "%s: %d events%s\n" file res.Velodrome_sim.Run.events
          (if res.Velodrome_sim.Run.deadlocked then " (DEADLOCK)" else "");
        let warnings =
          Warning.dedup_by_label res.Velodrome_sim.Run.warnings
        in
        report_warnings names warnings;
        exit_violations warnings)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a .vel program file for atomicity." ~exits)
    Term.(
      const run $ file $ seed_arg $ adversarial_arg $ analyses_arg $ spec_arg)

(* A program target is a .vel source file or a workload name. Parsing a
   file also yields the source position of each atomic label, which
   analyze uses to anchor verdicts; workloads are built in memory and
   have none. *)
let build_program_info name size =
  if Filename.check_suffix name ".vel" && Sys.file_exists name then
    match Velodrome_lang.Parser.parse_file_info name with
    | exception Velodrome_lang.Parser.Parse_error (m, l, c) ->
      Format.eprintf "%s: %a@." name Velodrome_lang.Parser.pp_error (m, l, c);
      exit 2
    | exception Velodrome_lang.Lexer.Lex_error (m, l, c) ->
      Printf.eprintf "%s: lex error at %d:%d: %s\n" name l c m;
      exit 2
    | program, positions -> (program, fun l -> List.assoc_opt l positions)
  else
    match Workload.find name with
    | None ->
      Printf.eprintf "unknown workload %S\n" name;
      exit 2
    | Some w -> (w.Workload.build size, fun _ -> None)

let build_program name size = fst (build_program_info name size)

(* --- analyze ----------------------------------------------------------------- *)

module Statics = Velodrome_statics.Statics
module Predict = Velodrome_predict.Predict
module Pplan = Velodrome_predict.Plan

(* The dynamic soundness gate behind [analyze --gate]: replay the program
   under round-robin, seeded-random and adversarial schedules and check
   both directions of the static story. The full Velodrome engine must
   never refute a statically-proved block (Theorem 1 makes blame a
   completeness claim — the transaction really is non-serializable — so a
   single mismatch is a statics bug, not scheduling noise); every block
   it does blame must be statically may-violate, since the conflict
   graph over-approximates every dynamic happens-before edge and a blame
   is a real cycle (a blamed block that is merely Unknown means the
   budget valve fired, which these program sizes never reach); and every
   dynamic race warning from the Eraser and happens-before back-ends must
   land on a variable the pairwise static detector also flags: a
   variable in no static race pair is race-free on every execution, so
   an uncovered dynamic race warning is likewise a statics bug. *)
let gate_schedules seeds =
  ("round-robin", Velodrome_sim.Run.Round_robin, false)
  :: List.concat_map
       (fun s ->
         [
           (Printf.sprintf "random(seed %d)" s, Velodrome_sim.Run.Random s, false);
           ( Printf.sprintf "adversarial(seed %d)" s,
             Velodrome_sim.Run.Random s,
             true );
         ])
       seeds

type gate_result = {
  gate_warnings : int;  (** dynamic warnings across all schedules *)
  blame_mismatches : (string * string) list;  (** schedule, proved label *)
  uncovered_blames : (string * string) list;
      (** schedule, dynamically blamed label whose static verdict is not
          may-violate — the coverage direction of the gate *)
  uncovered_races : (string * string * string) list;
      (** schedule, analysis, variable with a dynamic race warning but no
          static race pair *)
  engine_disagreements : (string * string) list;
      (** schedule, description — the three-way differential over the
          recorded trace of each schedule *)
  value_violations : (string * string) list;
      (** schedule, description — a dynamic event from a statically-dead
          site, or an observed value outside its static interval *)
}

let gate_ok g =
  g.blame_mismatches = [] && g.uncovered_blames = [] && g.uncovered_races = []
  && g.engine_disagreements = [] && g.value_violations = []

(* The three-way engine differential behind the gate: replay each
   schedule's recorded trace through the optimized engine, the Figure 2
   reference and AeroDrome. Two independent sound-and-complete
   algorithms (explicit happens-before graph vs vector clocks) must
   agree on the verdict and on the first violating event, and Aero must
   match Basic warning-for-warning. *)
let engine_trio_check names trace =
  let module E = Velodrome_core.Engine in
  let module B = Velodrome_core.Basic in
  let module A = Velodrome_core.Aero in
  let e = E.create names and b = B.create names and a = A.create names in
  List.iter
    (fun ev ->
      E.on_event e ev;
      B.on_event b ev;
      A.on_event a ev)
    (Velodrome_trace.Event.of_ops (Velodrome_trace.Trace.to_list trace));
  E.finish e;
  B.finish b;
  A.finish a;
  let proj (w : Warning.t) =
    (w.Warning.kind, w.Warning.tid, w.Warning.label, w.Warning.index,
     Warning.message w)
  in
  let wa = List.sort compare (List.map proj (A.warnings a))
  and wb = List.sort compare (List.map proj (B.warnings b)) in
  if E.has_error e <> B.has_error b || B.has_error b <> A.has_error a then
    Some
      (Printf.sprintf "verdicts disagree: velodrome=%b basic=%b aero=%b"
         (E.has_error e) (B.has_error b) (A.has_error a))
  else if
    E.first_error_index e <> B.first_error_index b
    || B.first_error_index b <> A.first_error_index a
  then Some "first violation index disagrees across engines"
  else if wa <> wb then
    Some
      (Printf.sprintf "aero/basic warning sets differ (%d vs %d)"
         (List.length wa) (List.length wb))
  else None

let may_violate st l =
  List.exists
    (fun b ->
      Velodrome_trace.Ids.Label.equal b.Statics.label l
      &&
      match b.Statics.verdict with
      | Statics.May_violate _ -> true
      | _ -> false)
    (Statics.blocks st)

(* The value-analysis obligations of the gate, checked per schedule via
   the interpreter's observation hook: no dynamic event may come from a
   statically-dead site, and every observed value at a fact-carrying
   site must lie within the static interval. The first violation per
   schedule is kept — one witness is enough to fail, and the hook stays
   cheap on the hot path. *)
let value_observer vals violation =
  Option.map
    (fun v (o : Velodrome_sim.Interp.obs) ->
      if !violation = None then begin
        let module V = Velodrome_statics.Values in
        let site =
          {
            Velodrome_statics.Cfg.thread = o.Velodrome_sim.Interp.o_thread;
            path = o.Velodrome_sim.Interp.o_path;
          }
        in
        if V.dead_site v site then
          violation :=
            Some
              (Printf.sprintf "event from statically-dead site %s"
                 (Velodrome_statics.Cfg.site_to_string site))
        else
          match (o.Velodrome_sim.Interp.o_value, V.fact_at v site) with
          | Some x, Some f when not (V.mem x f.V.itv) ->
            violation :=
              Some
                (Printf.sprintf
                   "observed value %d at %s outside static interval %s" x
                   (Velodrome_statics.Cfg.site_to_string site)
                   (V.itv_to_string f.V.itv))
          | _ -> ()
      end)
    vals

let run_gate program st seeds =
  let names = program.Velodrome_sim.Ast.names in
  let races = Statics.races st in
  let vals = Statics.values st in
  let warnings = ref 0 in
  let blame = ref [] in
  let unblamed = ref [] in
  let uncovered = ref [] in
  let engines = ref [] in
  let value_viols = ref [] in
  List.iter
    (fun (desc, policy, adversarial) ->
      let backends =
        [
          Backend.make (Velodrome_core.Engine.backend ()) names;
          Backend.make (Velodrome_eraser.Eraser.backend ()) names;
          Backend.make (Velodrome_hbrace.Hbrace.backend ()) names;
        ]
      in
      let violation = ref None in
      let config =
        {
          Velodrome_sim.Run.default_config with
          policy;
          adversarial;
          record_trace = true;
          observe = value_observer vals violation;
        }
      in
      let res = Velodrome_sim.Run.run ~config program backends in
      (match !violation with
      | Some msg -> value_viols := (desc, msg) :: !value_viols
      | None -> ());
      (match res.Velodrome_sim.Run.trace with
      | Some tr -> (
        match engine_trio_check names tr with
        | Some msg -> engines := (desc, msg) :: !engines
        | None -> ())
      | None -> ());
      warnings := !warnings + List.length res.Velodrome_sim.Run.warnings;
      List.iter
        (fun (w : Warning.t) ->
          List.iter
            (fun l ->
              if Statics.proved st l then
                blame :=
                  (desc, Velodrome_trace.Names.label_name names l) :: !blame
              else if not (may_violate st l) then
                unblamed :=
                  (desc, Velodrome_trace.Names.label_name names l)
                  :: !unblamed)
            w.Warning.refuted;
          match (w.Warning.kind, w.Warning.var) with
          | Warning.Race, Some x
            when not (Velodrome_statics.Races.racy_var races x) ->
            uncovered :=
              ( desc,
                w.Warning.analysis,
                Velodrome_trace.Names.var_name names x )
              :: !uncovered
          | _ -> ())
        res.Velodrome_sim.Run.warnings)
    (gate_schedules seeds);
  {
    gate_warnings = !warnings;
    blame_mismatches = List.rev !blame;
    uncovered_blames = List.sort_uniq compare !unblamed;
    uncovered_races = List.sort_uniq compare !uncovered;
    engine_disagreements = List.rev !engines;
    value_violations = List.rev !value_viols;
  }

(* A gate failure on a generated program is only actionable if it can be
   replayed. Print the progen seed, the program's structured families and
   the offending schedule on stderr, plus the single command that
   reproduces the run. The shape is pinned by `analyze --replay-demo` in
   the cram suite, so scripts can rely on it. *)
let print_generated_replay ~gen_seed ~families ~schedule ~seeds =
  Printf.eprintf
    "gate: generated program FAILED: progen seed %d, family %s, schedule \
     %s\n"
    gen_seed
    (String.concat "+" families)
    schedule;
  Printf.eprintf
    "gate: replay: velodrome analyze --generated 1 --gen-seed %d --seeds \
     %s --gate\n"
    gen_seed
    (String.concat "," (List.map string_of_int seeds))

let analyze_cmd =
  let target =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:"A .vel program file or workload name (omit with --all).")
  in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Analyze every workload.")
  in
  let gate =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Soundness gate: additionally replay each program under \
             round-robin, random and adversarial schedules (one run per \
             --seeds entry each) and fail if dynamic Velodrome ever blames \
             a statically-proved block, or if Eraser or the \
             happens-before detector warns about a variable in no static \
             race pair.")
  in
  let races_flag =
    Arg.(
      value & flag
      & info [ "races" ]
          ~doc:
            "Also report every static race pair (as the races subcommand \
             does).")
  in
  let seeds =
    Arg.(
      value
      & opt (list int) [ 1; 2; 3 ]
      & info [ "seeds" ] ~docv:"LIST"
          ~doc:"Scheduler seeds for the --gate runs.")
  in
  let graph =
    Arg.(
      value & flag
      & info [ "graph" ]
          ~doc:
            "Also report the static transactional conflict graph: node \
             and edge counts by sort, budget status, and one witness \
             cycle per may-violate block.")
  in
  let dot_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot-dir" ] ~docv:"DIR"
          ~doc:
            "Write the static conflict graph and each witness cycle as \
             dot files, mirroring the dynamic error graphs of 'run \
             --dot'.")
  in
  let generated =
    Arg.(
      value & opt int 0
      & info [ "generated" ] ~docv:"N"
          ~doc:
            "Additionally analyze (and with --gate, replay) N generated \
             programs with consecutive progen seeds starting at \
             --gen-seed.")
  in
  let gen_seed =
    Arg.(
      value & opt int 1
      & info [ "gen-seed" ] ~docv:"S"
          ~doc:"First progen seed for --generated.")
  in
  let replay_demo =
    Arg.(
      value & flag
      & info [ "replay-demo" ]
          ~doc:
            "Print the replay message a failing generated gate would \
             emit (for pinning its shape in tests) and exit.")
  in
  let predict_flag =
    Arg.(
      value & flag
      & info [ "predict" ]
          ~doc:
            "Witness-guided prediction: lower each may-violate block's \
             witness cycles into forced schedules, replay them, and \
             upgrade the verdict to predicted-violation when the engine \
             trio certifies the forced trace. With --gate, every emitted \
             prediction is additionally re-replayed and re-certified; an \
             uncertified prediction fails the gate.")
  in
  let values_flag =
    Arg.(
      value & flag
      & info [ "values" ]
          ~doc:
            "Also report the per-thread value analysis: one interval \
             fact per register write and shared access, plus every \
             statically-dead branch arm.")
  in
  let no_values =
    Arg.(
      value & flag
      & info [ "no-values" ]
          ~doc:
            "Disable the value analysis entirely: no branch pruning \
             feeds the static passes and the --gate value obligations \
             are skipped.")
  in
  let run target all fmt gate races graph dot_dir generated gen_seed
      replay_demo size seeds predict values_flag no_values =
    if replay_demo then begin
      print_generated_replay ~gen_seed:7
        ~families:[ "publication"; "snapshot" ]
        ~schedule:"adversarial(seed 2)" ~seeds;
      exit 0
    end;
    let named =
      if all then
        List.map
          (fun w ->
            (w.Workload.name, w.Workload.build size, (fun _ -> None), None))
          Workload.all
      else
        match target with
        | None when generated > 0 -> []
        | None ->
          Printf.eprintf "analyze: a TARGET (or --all) is required\n";
          exit 2
        | Some name ->
          let program, pos = build_program_info name size in
          [ (name, program, pos, None) ]
    in
    let targets =
      named
      @ List.init generated (fun k ->
            let s = gen_seed + k in
            let program, info =
              Velodrome_sim.Progen.generate_info
                (Velodrome_util.Rng.create s)
            in
            ( Printf.sprintf "generated(progen seed %d)" s,
              program,
              (fun _ -> None),
              Some (s, info.Velodrome_sim.Progen.families) ))
    in
    let any_unknown = ref false in
    let gate_failed = ref false in
    let results =
      List.map
        (fun (name, program, pos, origin) ->
          (match Velodrome_lang.Check.check_program program with
          | Ok () -> ()
          | Error errs ->
            List.iter
              (fun e ->
                Format.eprintf "%s: %a@." name Velodrome_lang.Check.pp_error
                  e)
              errs;
            exit 2);
          let st = Statics.analyze ~values:(not no_values) program in
          if Statics.proved_count st < Statics.block_count st then
            any_unknown := true;
          let gate_result =
            if gate then begin
              let g = run_gate program st seeds in
              if not (gate_ok g) then begin
                gate_failed := true;
                match origin with
                | Some (s, families) ->
                  let schedule =
                    match
                      ( g.blame_mismatches,
                        g.uncovered_blames,
                        g.uncovered_races,
                        g.engine_disagreements )
                    with
                    | (sched, _) :: _, _, _, _
                    | _, (sched, _) :: _, _, _
                    | _, _, (sched, _, _) :: _, _
                    | _, _, _, (sched, _) :: _ ->
                      sched
                    | [], [], [], [] -> "unknown"
                  in
                  print_generated_replay ~gen_seed:s ~families ~schedule
                    ~seeds
                | None -> ()
              end;
              Some g
            end
            else None
          in
          let predict_info =
            if predict then begin
              let p = Predict.run program st in
              let spec =
                match origin with
                | Some (s, _) -> Printf.sprintf "--gen-seed %d" s
                | None -> name
              in
              (* The prediction gate: re-replay every emitted prediction
                 from its schedule line and re-certify with the trio. By
                 construction Predict only emits certified predictions,
                 so a recheck failure means the replay line itself does
                 not reproduce — which is exactly what the gate exists
                 to catch. *)
              let recheck_failures =
                if gate then
                  List.filter_map
                    (fun (pr : Predict.prediction) ->
                      match
                        Predict.replay_and_certify program pr.Predict.label
                          pr.Predict.plan.Pplan.waypoints
                      with
                      | Ok _ -> None
                      | Error msg -> Some (pr.Predict.name, msg))
                    (Predict.predictions p)
                else []
              in
              if recheck_failures <> [] then gate_failed := true;
              Some (p, spec, recheck_failures)
            end
            else None
          in
          (name, pos, st, gate_result, predict_info))
        targets
    in
    let schedules = List.length (gate_schedules seeds) in
    (match fmt with
    | `Human ->
      List.iter
        (fun (name, pos, st, gate_result, predict_info) ->
          if all || generated > 0 then Format.printf "== %s ==@." name;
          Format.printf "%a" (Statics.pp_human ~pos) st;
          if values_flag then Format.printf "%a" Statics.pp_values_human st;
          if races then Format.printf "%a" (Statics.pp_races_human ~pos) st;
          if graph then Format.printf "%a" Statics.pp_graph_human st;
          (match predict_info with
          | None -> ()
          | Some (p, spec, fails) ->
            Format.printf "%a" (Predict.pp_human ~replay_with:spec) p;
            if gate then
              if fails = [] then
                Format.printf
                  "prediction gate: OK (%d prediction%s re-certified by \
                   replay)@."
                  (List.length (Predict.predictions p))
                  (if List.length (Predict.predictions p) = 1 then ""
                   else "s")
              else
                List.iter
                  (fun (b, msg) ->
                    Format.printf
                      "prediction gate: FAILED: %s: %s@." b msg)
                  fails);
          match gate_result with
          | None -> ()
          | Some g when gate_ok g ->
            Format.printf
              "soundness gate: OK (%d schedules, %d dynamic warnings, no \
               proved block blamed, every blamed block may-violate, every \
               dynamic race statically covered, aero = velodrome = basic on \
               every recorded trace%s)@."
              schedules g.gate_warnings
              (if Statics.values st <> None then
                 ", no dead site executed, every observed value in its \
                  static interval"
               else "")
          | Some g ->
            List.iter
              (fun (sched, label) ->
                Format.printf
                  "soundness gate: FAILED: proved block %s blamed under \
                   %s@."
                  label sched)
              g.blame_mismatches;
            List.iter
              (fun (sched, label) ->
                Format.printf
                  "soundness gate: FAILED: blamed block %s is not \
                   statically may-violate under %s@."
                  label sched)
              g.uncovered_blames;
            List.iter
              (fun (sched, analysis, var) ->
                Format.printf
                  "soundness gate: FAILED: %s warned about %s under %s but \
                   no static race pair covers it@."
                  analysis var sched)
              g.uncovered_races;
            List.iter
              (fun (sched, msg) ->
                Format.printf
                  "soundness gate: FAILED: engines disagree under %s: %s@."
                  sched msg)
              g.engine_disagreements;
            List.iter
              (fun (sched, msg) ->
                Format.printf
                  "soundness gate: FAILED: value analysis unsound under \
                   %s: %s@."
                  sched msg)
              g.value_violations)
        results
    | `Json ->
      let open Velodrome_util.Json in
      let docs =
        List.map
          (fun (name, pos, st, gate_result, predict_info) ->
            let base = Statics.to_json ~pos ~file:name st in
            let with_extras doc =
              match doc with
              | Obj fields ->
                let fields =
                  if values_flag then
                    fields @ [ ("values", Statics.values_json st) ]
                  else fields
                in
                let fields =
                  if races then
                    fields @ [ ("races", Statics.races_to_json ~pos st) ]
                  else fields
                in
                let fields =
                  if graph then fields @ [ ("graph", Statics.graph_json st) ]
                  else fields
                in
                let fields =
                  match predict_info with
                  | None -> fields
                  | Some (p, spec, fails) ->
                    let pdoc =
                      match Predict.to_json ~replay_with:spec p with
                      | Obj pf when gate ->
                        Obj
                          (pf
                          @ [
                              ( "gate",
                                Obj
                                  [
                                    ( "recertified",
                                      Int
                                        (List.length (Predict.predictions p)
                                        - List.length fails) );
                                    ( "failures",
                                      List
                                        (List.map
                                           (fun (b, msg) ->
                                             Obj
                                               [
                                                 ("block", String b);
                                                 ("message", String msg);
                                               ])
                                           fails) );
                                    ("ok", Bool (fails = []));
                                  ] );
                            ])
                      | pdoc -> pdoc
                    in
                    fields @ [ ("predict", pdoc) ]
                in
                Obj fields
              | doc -> doc
            in
            with_extras
              (match (base, gate_result) with
              | Obj fields, Some g ->
                Obj
                  (fields
                  @ [
                      ( "gate",
                        Obj
                          [
                            ("schedules", Int schedules);
                            ("dynamic_warnings", Int g.gate_warnings);
                            ( "mismatches",
                              List
                                (List.map
                                   (fun (sched, label) ->
                                     Obj
                                       [
                                         ("label", String label);
                                         ("schedule", String sched);
                                       ])
                                   g.blame_mismatches) );
                            ( "uncovered_blames",
                              List
                                (List.map
                                   (fun (sched, label) ->
                                     Obj
                                       [
                                         ("label", String label);
                                         ("schedule", String sched);
                                       ])
                                   g.uncovered_blames) );
                            ( "uncovered_races",
                              List
                                (List.map
                                   (fun (sched, analysis, var) ->
                                     Obj
                                       [
                                         ("var", String var);
                                         ("analysis", String analysis);
                                         ("schedule", String sched);
                                       ])
                                   g.uncovered_races) );
                            ( "engine_disagreements",
                              List
                                (List.map
                                   (fun (sched, msg) ->
                                     Obj
                                       [
                                         ("message", String msg);
                                         ("schedule", String sched);
                                       ])
                                   g.engine_disagreements) );
                            ( "value_violations",
                              List
                                (List.map
                                   (fun (sched, msg) ->
                                     Obj
                                       [
                                         ("message", String msg);
                                         ("schedule", String sched);
                                       ])
                                   g.value_violations) );
                            ("ok", Bool (gate_ok g));
                          ] );
                    ])
              | doc, _ -> doc))
          results
      in
      let out =
        match docs with
        | [ d ] when (not all) && generated = 0 -> d
        | ds -> List ds
      in
      print_endline (to_string out));
    Option.iter
      (fun dir ->
        (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
        List.iter
          (fun (name, _, st, _, _) ->
            let slug =
              String.map
                (function '.' | '/' | '(' | ')' | ' ' -> '_' | c -> c)
                name
            in
            List.iter
              (fun (kind, dot) ->
                let path =
                  Filename.concat dir
                    (Printf.sprintf "%s.%s.dot" slug kind)
                in
                let oc = open_out path in
                output_string oc dot;
                close_out oc;
                match fmt with
                | `Human -> Printf.printf "static graph written to %s\n" path
                | `Json -> ())
              (Statics.graph_dots st))
          results)
      dot_dir;
    if !gate_failed then exit 1;
    if (not gate) && !any_unknown then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static atomicity pre-pass: per-thread CFGs, must-lockset \
          dataflow, Lipton mover classification, a reduction check per \
          atomic block and a transactional conflict-graph cycle search. \
          Exits 0 when every block is proved atomic, 1 otherwise (or on \
          a failed --gate)."
       ~exits)
    Term.(
      const run $ target $ all $ format_arg $ gate $ races_flag $ graph
      $ dot_dir $ generated $ gen_seed $ replay_demo $ size_arg $ seeds
      $ predict_flag $ values_flag $ no_values)

(* --- predict ----------------------------------------------------------------- *)

let predict_cmd =
  let target =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "A .vel program file or workload name (or use --gen-seed for \
             a generated program).")
  in
  let gen_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "gen-seed" ] ~docv:"S"
          ~doc:
            "Predict on the generated program with progen seed S instead \
             of a TARGET.")
  in
  let block =
    Arg.(
      value
      & opt (some string) None
      & info [ "block" ] ~docv:"NAME"
          ~doc:
            "Restrict prediction to the atomic block NAME (required by \
             --schedule).")
  in
  let schedule =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"PLAN"
          ~doc:
            "Replay one waypoint schedule (the payload of a prediction's \
             replay line, e.g. \"t0@1.0 -> t1@2\") against --block and \
             certify it with the engine trio, instead of planning from \
             witnesses.")
  in
  let max_witnesses =
    Arg.(
      value & opt int 8
      & info [ "max-witnesses" ] ~docv:"N"
          ~doc:"Witness cycles tried per may-violate block.")
  in
  let run target gen_seed block schedule fmt size max_witnesses =
    let spec, program =
      match (target, gen_seed) with
      | Some _, Some _ ->
        Printf.eprintf "predict: TARGET and --gen-seed are mutually \
                        exclusive\n";
        exit 2
      | None, None ->
        Printf.eprintf "predict: a TARGET or --gen-seed is required\n";
        exit 2
      | Some name, None -> (name, build_program name size)
      | None, Some s ->
        ( Printf.sprintf "--gen-seed %d" s,
          fst
            (Velodrome_sim.Progen.generate_info
               (Velodrome_util.Rng.create s)) )
    in
    (match Velodrome_lang.Check.check_program program with
    | Ok () -> ()
    | Error errs ->
      List.iter
        (fun e ->
          Format.eprintf "%s: %a@." spec Velodrome_lang.Check.pp_error e)
        errs;
      exit 2);
    let st = Statics.analyze program in
    match schedule with
    | Some sch -> begin
      let bname =
        match block with
        | Some b -> b
        | None ->
          Printf.eprintf "predict: --schedule requires --block\n";
          exit 2
      in
      let blk =
        match
          List.find_opt
            (fun (b : Statics.block) -> b.Statics.name = bname)
            (Statics.blocks st)
        with
        | Some b -> b
        | None ->
          Printf.eprintf "predict: no atomic block named %S\n" bname;
          exit 2
      in
      match Pplan.parse_schedule sch with
      | Error msg ->
        Printf.eprintf "predict: bad --schedule: %s\n" msg;
        exit 2
      | Ok plan -> (
        match Predict.replay_and_certify program blk.Statics.label plan with
        | Ok idx ->
          Format.printf
            "%s: certified violation at event %d under the forced \
             schedule@."
            bname idx;
          exit 1
        | Error msg ->
          Format.printf "%s: not certified: %s@." bname msg;
          exit 0)
    end
    | None ->
      let p = Predict.run ?only:block ~max_witnesses program st in
      (match fmt with
      | `Human -> Format.printf "%a" (Predict.pp_human ~replay_with:spec) p
      | `Json ->
        print_endline
          (Velodrome_util.Json.to_string
             (Predict.to_json ~file:spec ~replay_with:spec p)));
      if Predict.predictions p <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Witness-guided predictive atomicity: lower each statically \
          may-violate block's witness cycles into forced schedules, \
          replay them deterministically, and report only violations the \
          engine trio certifies on the forced trace. Exits 1 when \
          predictions are emitted, 0 when none."
       ~exits)
    Term.(
      const run $ target $ gen_seed $ block $ schedule $ format_arg
      $ size_arg $ max_witnesses)

(* --- races ------------------------------------------------------------------- *)

let races_cmd =
  let target =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:"A .vel program file or workload name (omit with --all).")
  in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Report every workload.")
  in
  let run target all fmt size =
    let targets =
      if all then
        List.map
          (fun w ->
            (w.Workload.name, w.Workload.build size, fun _ -> None))
          Workload.all
      else
        match target with
        | None ->
          Printf.eprintf "races: a TARGET (or --all) is required\n";
          exit 2
        | Some name ->
          let program, pos = build_program_info name size in
          [ (name, program, pos) ]
    in
    let any_races = ref false in
    let results =
      List.map
        (fun (name, program, pos) ->
          (match Velodrome_lang.Check.check_program program with
          | Ok () -> ()
          | Error errs ->
            List.iter
              (fun e ->
                Format.eprintf "%s: %a@." name Velodrome_lang.Check.pp_error
                  e)
              errs;
            exit 2);
          let st = Statics.analyze program in
          if Statics.race_pair_count st > 0 then any_races := true;
          (name, pos, st))
        targets
    in
    (match fmt with
    | `Human ->
      List.iter
        (fun (name, pos, st) ->
          if all then Format.printf "== %s ==@." name;
          Format.printf "%a" (Statics.pp_races_human ~pos) st)
        results
    | `Json ->
      let open Velodrome_util.Json in
      let docs =
        List.map
          (fun (name, pos, st) -> Statics.races_to_json ~pos ~file:name st)
          results
      in
      let out = match docs with [ d ] when not all -> d | ds -> List ds in
      print_endline (to_string out));
    if !any_races then exit 1
  in
  Cmd.v
    (Cmd.info "races"
       ~doc:
         "Whole-program pairwise static race detection: for every ordered \
          pair of conflicting access sites that may run in parallel, \
          intersect their must-locksets and report the pairs with no \
          common lock, with the atomic blocks each pair endangers. Exits \
          0 when no race pair is found, 1 when at least one is reported, \
          2 on unparseable or ill-formed input."
       ~exits)
    Term.(const run $ target $ all $ format_arg $ size_arg)

(* --- trace files ------------------------------------------------------------ *)

(* A trace destination is binary iff it is named .velb; sources are
   sniffed by magic, so either format is accepted everywhere. *)
let binary_path path = Filename.check_suffix path ".velb"

let write_trace names trace path =
  if binary_path path then
    Velodrome_trace.Trace_codec.write_file names trace path
  else Velodrome_trace.Trace_io.write_file names trace path

let record_cmd =
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workload to record, or a .vel program file.")
  in
  let out =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Output trace file (binary when named *.velb).")
  in
  let run name out size seed =
    let program = build_program name size in
    let config =
      {
        Velodrome_sim.Run.default_config with
        policy = Velodrome_sim.Run.Random seed;
        record_trace = true;
      }
    in
    let res = Velodrome_sim.Run.run ~config program [] in
    let trace = Option.get res.Velodrome_sim.Run.trace in
    write_trace program.Velodrome_sim.Ast.names trace out;
    Printf.printf "recorded %d operations to %s\n"
      (Velodrome_trace.Trace.length trace)
      out
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Record a workload's event trace to a file.")
    Term.(const run $ workload $ out $ size_arg $ seed_arg)

let read_trace file =
  if Velodrome_trace.Trace_codec.is_binary_file file then
    Velodrome_trace.Trace_codec.read_file file
  else Velodrome_trace.Trace_io.read_file file

let load_trace file =
  match read_trace file with
  | exception Velodrome_trace.Trace_io.Syntax_error (line, msg) ->
    Printf.eprintf "%s:%d: %s\n" file line msg;
    exit 2
  | exception Velodrome_trace.Trace_codec.Corrupt msg ->
    Printf.eprintf "%s: corrupt binary trace: %s\n" file msg;
    exit 2
  | names, trace -> (
    match Velodrome_trace.Trace.check trace with
    | Error v ->
      Format.eprintf "%s: ill-formed trace: %a@." file
        Velodrome_trace.Trace.pp_violation v;
      exit 2
    | Ok () -> (names, trace))

(* Like make_backends, but the optimized engine is built explicitly so
   the --stats reporter can probe its live happens-before node count. *)
let make_stream_backends analyses names =
  let probe = ref None in
  let backends =
    List.map
      (function
        | "velodrome", _ ->
          let eng = Velodrome_core.Engine.create names in
          probe :=
            Some (fun () -> Velodrome_core.Engine.nodes_live eng);
          let module E = struct
            type t = Velodrome_core.Engine.t

            let name = "velodrome"
            let create _ = eng
            let on_event = Velodrome_core.Engine.on_event
            let pause_hint _ _ = false
            let finish = Velodrome_core.Engine.finish
            let warnings = Velodrome_core.Engine.warnings
          end in
          Backend.make (module E) names
        | _, make -> make names)
      analyses
  in
  (backends, !probe)

let print_stats (s : Velodrome_stream.Driver.stats) =
  Printf.eprintf
    "[stream] events=%d warnings=%d%s alloc=%.0fw minor-gcs=%d major-gcs=%d\n%!"
    s.Velodrome_stream.Driver.events s.Velodrome_stream.Driver.warnings
    (match s.Velodrome_stream.Driver.live_nodes with
    | Some n -> Printf.sprintf " live-nodes=%d" n
    | None -> "")
    s.Velodrome_stream.Driver.allocated_words
    s.Velodrome_stream.Driver.minor_collections
    s.Velodrome_stream.Driver.major_collections

let warning_json = Warning.to_json

let report_trace_result ?(partial = false) fmt file events names warnings =
  match fmt with
  | `Human ->
    Printf.printf "%s: %d operations%s\n" file events
      (if partial then " (partial: stream truncated)" else "");
    report_warnings names warnings
  | `Json ->
    let open Velodrome_util.Json in
    print_endline
      (to_string
         (Obj
            ([
               ("file", String file);
               ("events", Int events);
               ("warnings", List (List.map (warning_json names) warnings));
             ]
            @ if partial then [ ("partial", Bool true) ] else [])))

let check_trace_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A recorded trace file (text or binary).")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Replay directly from the file in bounded memory instead of \
             loading the whole trace first.")
  in
  let stats =
    Arg.(
      value
      & opt (some int) None
      & info [ "stats" ] ~docv:"N"
          ~doc:
            "With --stream: report engine statistics to stderr every N \
             events.")
  in
  let run file analyses stream stats fmt =
    let analyses = resolve_analyses analyses in
    if stream then begin
      match
        Velodrome_stream.Source.with_file file (fun src ->
            let names = src.Velodrome_stream.Source.names in
            let backends, live_nodes = make_stream_backends analyses names in
            let progress = Option.map (fun _ -> print_stats) stats in
            match
              Velodrome_stream.Driver.run ?progress ?every:stats ?live_nodes
                backends src
            with
            | events, warnings -> (names, events, warnings, None)
            | exception Velodrome_stream.Driver.Interrupted { events; error }
              ->
              (* The prefix before the damage is a real trace: keep its
                 event count and warnings and report them below. *)
              (names, events, List.concat_map Backend.warnings backends,
               Some error))
      with
      | exception Velodrome_trace.Trace_io.Syntax_error (line, msg) ->
        Printf.eprintf "%s:%d: %s\n" file line msg;
        exit 2
      | exception Velodrome_trace.Trace_codec.Corrupt msg ->
        Printf.eprintf "%s: corrupt binary trace: %s\n" file msg;
        exit 2
      | names, events, warnings, partial ->
        let warnings = Warning.dedup_by_label warnings in
        (match partial with
        | None ->
          report_trace_result fmt file events names warnings;
          exit_violations warnings
        | Some error ->
          (* Partial stats before the exit-2 diagnostic: a truncated
             stream's replayed prefix still counts. *)
          if events > 0 then
            report_trace_result ~partial:true fmt file events names warnings;
          (match error with
          | Velodrome_trace.Trace_io.Syntax_error (line, msg) ->
            Printf.eprintf "%s:%d: %s\n" file line msg
          | Velodrome_trace.Trace_codec.Corrupt msg ->
            Printf.eprintf "%s: corrupt binary trace: %s\n" file msg
          | e -> raise e);
          exit 2)
    end
    else begin
      let names, trace = load_trace file in
      let backends = make_backends analyses names in
      let warnings =
        Warning.dedup_by_label (Backend.run_trace backends trace)
      in
      report_trace_result fmt file
        (Velodrome_trace.Trace.length trace)
        names warnings;
      exit_violations warnings
    end
  in
  Cmd.v
    (Cmd.info "check-trace"
       ~doc:"Replay a recorded trace through the analyses." ~exits)
    Term.(const run $ file $ analyses_arg $ stream $ stats $ format_arg)

let convert_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"INPUT" ~doc:"Trace file to convert (text or binary).")
  in
  let output =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUTPUT"
          ~doc:"Destination (binary when named *.velb, text otherwise).")
  in
  let to_format =
    Arg.(
      value
      & opt (some (enum [ ("binary", true); ("text", false) ])) None
      & info [ "to" ] ~docv:"FORMAT"
          ~doc:"Force the output format: binary or text.")
  in
  let run input output to_format =
    let names, trace = load_trace input in
    let binary =
      match to_format with Some b -> b | None -> binary_path output
    in
    if binary then
      Velodrome_trace.Trace_codec.write_file names trace output
    else Velodrome_trace.Trace_io.write_file names trace output;
    Printf.printf "converted %s (%d events) to %s (%s)\n" input
      (Velodrome_trace.Trace.length trace)
      output
      (if binary then "binary" else "text")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert a trace between the text and binary formats.")
    Term.(const run $ input $ output $ to_format)

let minimize_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A recorded trace file.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o" ] ~docv:"FILE" ~doc:"Write the minimized trace here.")
  in
  let run file out =
    let names, trace = load_trace file in
    if Velodrome_oracle.Oracle.serializable trace then begin
      Printf.printf "%s is serializable; nothing to minimize.\n" file;
      exit 0
    end;
    let small = Velodrome_oracle.Minimize.ddmin trace in
    Printf.printf "minimized %d operations to %d:\n"
      (Velodrome_trace.Trace.length trace)
      (Velodrome_trace.Trace.length small);
    print_string (Velodrome_trace.Trace_io.to_string names small);
    Option.iter
      (fun path -> Velodrome_trace.Trace_io.write_file names small path)
      out
  in
  Cmd.v
    (Cmd.info "minimize"
       ~doc:
        "Shrink a non-serializable trace to a 1-minimal witness (delta \
         debugging).")
    Term.(const run $ file $ out)

(* --- print ------------------------------------------------------------------ *)

let print_cmd =
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload to print as .vel source.")
  in
  let run name size =
    match Workload.find name with
    | None ->
      Printf.eprintf "unknown workload %S\n" name;
      exit 2
    | Some w ->
      print_string
        (Velodrome_lang.Printer.to_string (w.Workload.build size))
  in
  Cmd.v
    (Cmd.info "print"
       ~doc:"Print a workload program in the .vel core form.")
    Term.(const run $ workload $ size_arg)

(* --- fuzz ------------------------------------------------------------------- *)

let fuzz_cmd =
  let count =
    Arg.(
      value & opt int 2000
      & info [ "count"; "n" ] ~docv:"N" ~doc:"Random traces to check.")
  in
  let dense =
    Arg.(
      value & flag
      & info [ "dense" ] ~doc:"High-contention trace shape (2 vars, 1 lock).")
  in
  let run count seed dense =
    let open Velodrome_trace in
    let cfg =
      if dense then
        {
          Gen.default with
          threads = 4;
          vars = 2;
          locks = 1;
          steps = 60;
          max_depth = 3;
        }
      else Gen.default
    in
    let rng = Velodrome_util.Rng.create seed in
    let mismatches = ref 0 in
    for k = 1 to count do
      let tr = Gen.run rng cfg in
      let names = Names.create () in
      let eng = Velodrome_core.Engine.create names in
      let basic = Velodrome_core.Basic.create names in
      Trace.iteri
        (fun index op ->
          let ev = Event.make ~index op in
          Velodrome_core.Engine.on_event eng ev;
          Velodrome_core.Basic.on_event basic ev)
        tr;
      let oracle = not (Velodrome_oracle.Oracle.serializable tr) in
      let engine = Velodrome_core.Engine.has_error eng in
      let fig2 = Velodrome_core.Basic.has_error basic in
      if engine <> oracle || fig2 <> oracle then begin
        incr mismatches;
        Printf.printf
          "MISMATCH on trace %d: oracle=%b engine=%b basic=%b\n%s\n" k oracle
          engine fig2
          (Trace_io.to_string names tr)
      end
    done;
    if !mismatches = 0 then
      Printf.printf
        "fuzz: %d random traces, engine = basic = oracle on all of them\n"
        count
    else begin
      Printf.printf "fuzz: %d mismatches out of %d traces\n" !mismatches count;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
        "Differential fuzzing: random well-formed traces through both \
         engines and the offline oracle.")
    Term.(const run $ count $ seed_arg $ dense)

(* --- tables and studies --------------------------------------------------- *)

let repeats_arg =
  Arg.(
    value & opt int 3
    & info [ "repeats" ] ~docv:"N" ~doc:"Timing repetitions (median).")

let table1_cmd =
  let run size seed repeats =
    let rows = Velodrome_harness.Table1.run ~size ~seed ~repeats () in
    Format.printf "Table 1: slowdowns and happens-before node statistics@.";
    Velodrome_harness.Table1.print Format.std_formatter rows
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Regenerate Table 1.")
    Term.(const run $ size_arg $ seed_arg $ repeats_arg)

let seeds_arg =
  Arg.(
    value
    & opt (list int) [ 1; 2; 3; 4; 5 ]
    & info [ "seeds" ] ~docv:"LIST" ~doc:"Scheduler seeds (one run each).")

let table2_cmd =
  let run size seeds adversarial =
    let rows = Velodrome_harness.Table2.run ~size ~seeds ~adversarial () in
    Format.printf
      "Table 2: warnings with all methods assumed atomic (%d runs each)@."
      (List.length seeds);
    Velodrome_harness.Table2.print Format.std_formatter rows
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Regenerate Table 2.")
    Term.(const run $ size_arg $ seeds_arg $ adversarial_arg)

let study_cmd =
  let part =
    Arg.(
      value
      & opt string "all"
      & info [ "part" ] ~docv:"PART"
          ~doc:"coverage, injection, singlecore, agreement, or all.")
  in
  let run size seeds part =
    if part = "coverage" || part = "all" then begin
      Format.printf "Study S2: adversarial scheduling coverage@.";
      Velodrome_harness.Study.print_coverage Format.std_formatter
        (Velodrome_harness.Study.coverage ~size ~seeds ())
    end;
    if part = "injection" || part = "all" then begin
      Format.printf "Study S3: injected synchronization defects@.";
      Velodrome_harness.Study.print_injection Format.std_formatter
        (Velodrome_harness.Study.injection ~size ~seeds ())
    end;
    if part = "singlecore" || part = "all" then begin
      Format.printf "Study S4: single-core scheduling sensitivity@.";
      Velodrome_harness.Study.print_single_core Format.std_formatter
        (Velodrome_harness.Study.single_core ~size ~seeds ())
    end;
    if part = "agreement" || part = "all" then begin
      Format.printf "Study A1: three-way engine agreement@.";
      Velodrome_harness.Study.print_agreement Format.std_formatter
        (Velodrome_harness.Study.agreement ~size ~seeds ())
    end
  in
  Cmd.v
    (Cmd.info "study" ~doc:"Adversarial scheduling studies.")
    Term.(const run $ size_arg $ seeds_arg $ part)

(* --- multicore serving ---------------------------------------------------- *)

module Serve = Velodrome_serve.Serve

let serve_cmd =
  let targets =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:
            "Trace files, or directories scanned (non-recursively) for \
             *.velb and *.trace entries.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains. Defaults to the recommended domain count, \
             clamped to the number of streams.")
  in
  let queue_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Job-queue capacity, rounded up to a power of two (default: \
             2*jobs). Bounds resident streams at capacity + jobs.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Report per-stream timings and a pool summary to stderr.")
  in
  let run targets analyses jobs queue stats fmt =
    let analyses = resolve_analyses analyses in
    let paths =
      match Serve.expand_targets targets with
      | Ok paths -> paths
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
    in
    let backends = make_backends analyses in
    let total = List.length paths in
    (* Per-stream output is byte-identical to [check-trace FILE] (same
       renderer, same JSON objects), and the ordered merge emits it in
       submission order — so the whole stdout is independent of --jobs
       and equal to a sequential sweep. *)
    let print_views = function
      | [] -> print_endline "No warnings."
      | ws ->
        Printf.printf "%d warning(s):\n" (List.length ws);
        List.iter
          (fun (w : Serve.warning_view) -> Printf.printf "  %s\n" w.Serve.human)
          ws
    in
    let json_doc path events warnings extra =
      let open Velodrome_util.Json in
      Obj
        ([
           ("file", String path);
           ("events", Int events);
           ( "warnings",
             List
               (List.map
                  (fun (w : Serve.warning_view) -> w.Serve.json)
                  warnings) );
         ]
        @ extra)
    in
    let print_result (r : Serve.result) =
      (match (fmt, r.Serve.outcome) with
      | `Human, Serve.Checked { events; warnings } ->
        Printf.printf "%s: %d operations\n" r.Serve.path events;
        print_views warnings
      | `Human, Serve.Failed { events; warnings; message } ->
        if events > 0 then begin
          Printf.printf "%s: %d operations (partial: stream truncated)\n"
            r.Serve.path events;
          print_views warnings
        end;
        Printf.eprintf "%s\n" message
      | `Json, Serve.Checked { events; warnings } ->
        print_endline
          (Velodrome_util.Json.to_string (json_doc r.Serve.path events warnings []))
      | `Json, Serve.Failed { events; warnings; message } ->
        if events > 0 then
          print_endline
            (Velodrome_util.Json.to_string
               (json_doc r.Serve.path events warnings
                  [ ("partial", Velodrome_util.Json.Bool true) ]));
        Printf.eprintf "%s\n" message);
      if stats then
        Printf.eprintf "[serve] %d/%d %s: %d events, %d warnings, wait %.2fms, check %.2fms\n%!"
          (r.Serve.index + 1) total r.Serve.path
          (match r.Serve.outcome with
          | Serve.Checked { events; _ } | Serve.Failed { events; _ } -> events)
          (match r.Serve.outcome with
          | Serve.Checked { warnings; _ } | Serve.Failed { warnings; _ } ->
            List.length warnings)
          (Int64.to_float r.Serve.wait_ns /. 1e6)
          (Int64.to_float r.Serve.check_ns /. 1e6)
    in
    let s = Serve.run ?jobs ?queue_capacity:queue ~backends ~on_result:print_result paths in
    if stats then begin
      let secs = Int64.to_float s.Serve.elapsed_ns /. 1e9 in
      Printf.eprintf
        "[serve] %d streams, %d events, %d warnings, %d failed on %d domain(s): %.0f events/s, queue wait mean %.2fms, max resident %d (bound %d)\n%!"
        s.Serve.streams s.Serve.events s.Serve.warnings s.Serve.failed
        s.Serve.jobs
        (if secs > 0. then float_of_int s.Serve.events /. secs else 0.)
        (if s.Serve.streams > 0 then
           Int64.to_float s.Serve.queue_wait_ns /. 1e6
           /. float_of_int s.Serve.streams
         else 0.)
        s.Serve.max_resident
        (s.Serve.queue_capacity + s.Serve.jobs)
    end;
    if s.Serve.failed > 0 then exit 2
    else if s.Serve.warnings > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Check many trace streams concurrently on a pool of worker \
          domains, with deterministic, submission-ordered output."
       ~exits)
    Term.(
      const run $ targets
      $ analyses_arg_with [ "velodrome" ]
      $ jobs_arg $ queue_arg $ stats_flag $ format_arg)

let () =
  let doc = "sound and complete dynamic atomicity checking (PLDI 2008)" in
  let info = Cmd.info "velodrome" ~version:"1.0.0" ~doc ~exits in
  let code =
    Cmd.eval
      (Cmd.group info
         [
           list_cmd; run_cmd; check_cmd; analyze_cmd; predict_cmd;
           races_cmd; print_cmd;
           record_cmd; check_trace_cmd; serve_cmd; convert_cmd; minimize_cmd;
           fuzz_cmd;
           table1_cmd; table2_cmd; study_cmd;
         ])
  in
  (* Fold cmdliner's usage-error code into the documented 2. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
