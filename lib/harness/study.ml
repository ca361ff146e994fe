open Velodrome_analysis
open Velodrome_workloads

type coverage_row = {
  workload : string;
  rare_total : int;
  found_plain : int;
  found_adversarial : int;
}

module SSet = Set.Make (String)

let velodrome_found ~adversarial ~seeds (w : Workload.t) size =
  List.fold_left
    (fun acc seed ->
      let program = w.Workload.build size in
      let names = program.Velodrome_sim.Ast.names in
      let res =
        Common.run_once ~seed ~adversarial program (fun n ->
            [
              Backend.make (Velodrome_atomizer.Atomizer.backend ()) n;
              Backend.make (Velodrome_core.Engine.backend ()) n;
            ])
      in
      List.fold_left
        (fun acc (warning : Warning.t) ->
          if warning.Warning.analysis = "velodrome" && warning.Warning.blamed
          then begin
            match Common.label_of_warning names warning with
            | Some l -> SSet.add l acc
            | None -> acc
          end
          else acc)
        acc res.Velodrome_sim.Run.warnings)
    SSet.empty seeds

let coverage ?(size = Workload.Medium) ?(seeds = [ 1; 2; 3; 4; 5 ]) () =
  [ "raytracer"; "colt"; "jigsaw" ]
  |> List.filter_map Workload.find
  |> List.map (fun w ->
         let rare =
           List.filter
             (fun g -> (not g.Workload.atomic) && g.Workload.rare)
             w.Workload.methods
           |> List.map (fun g -> g.Workload.label)
           |> SSet.of_list
         in
         let plain = velodrome_found ~adversarial:false ~seeds w size in
         let adv = velodrome_found ~adversarial:true ~seeds w size in
         {
           workload = w.Workload.name;
           rare_total = SSet.cardinal rare;
           found_plain = SSet.cardinal (SSet.inter rare plain);
           found_adversarial = SSet.cardinal (SSet.inter rare adv);
         })

let print_coverage ppf rows =
  Format.fprintf ppf "%-11s | %10s | %11s | %16s@." "Program" "Rare bugs"
    "Found plain" "Found adversarial";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-11s | %10d | %11d | %16d@." r.workload
        r.rare_total r.found_plain r.found_adversarial)
    rows

type injection_row = {
  workload : string;
  mutants : int;
  runs : int;
  detected_plain : int;
  detected_adversarial : int;
}

let detect ~adversarial ~seed (m : Velodrome_inject.Inject.mutant) =
  let names = m.Velodrome_inject.Inject.program.Velodrome_sim.Ast.names in
  let res =
    Common.run_once ~seed ~adversarial m.Velodrome_inject.Inject.program
      (fun n ->
        [
          Backend.make (Velodrome_atomizer.Atomizer.backend ()) n;
          Backend.make (Velodrome_core.Engine.backend ()) n;
        ])
  in
  List.exists
    (fun (warning : Warning.t) ->
      warning.Warning.analysis = "velodrome"
      && warning.Warning.blamed
      && Common.label_of_warning names warning
         = Some m.Velodrome_inject.Inject.method_label)
    res.Velodrome_sim.Run.warnings

let injection ?(size = Workload.Medium) ?(seeds = [ 1; 2; 3; 4; 5 ]) () =
  [ "elevator"; "colt" ]
  |> List.filter_map Workload.find
  |> List.map (fun w ->
         let ms = Velodrome_inject.Inject.mutants w size in
         let count adversarial =
           List.fold_left
             (fun acc m ->
               List.fold_left
                 (fun acc seed ->
                   if detect ~adversarial ~seed m then acc + 1 else acc)
                 acc seeds)
             0 ms
         in
         {
           workload = w.Workload.name;
           mutants = List.length ms;
           runs = List.length ms * List.length seeds;
           detected_plain = count false;
           detected_adversarial = count true;
         })

type single_core_row = {
  mode : string;
  found : int;
  false_alarms : int;
  s4_missed : int;
}

let single_core ?(size = Workload.Medium) ?(seeds = [ 1; 2; 3; 4; 5 ]) () =
  let total ~quantum mode =
    let t = Table2.totals (Table2.run ~size ~seeds ~quantum ()) in
    {
      mode;
      found = t.Table2.velodrome_real;
      false_alarms = t.Table2.velodrome_fa;
      s4_missed = t.Table2.missed;
    }
  in
  [
    total ~quantum:1 "multi-core (quantum 1)";
    total ~quantum:25 "single core (quantum 25)";
  ]

let print_single_core ppf rows =
  Format.fprintf ppf "%-26s | %9s | %12s | %7s@." "Scheduler" "Vel:real"
    "Vel:FA" "Missed";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-26s | %9d | %12d | %7d@." r.mode r.found
        r.false_alarms r.s4_missed)
    rows

let print_injection ppf rows =
  Format.fprintf ppf "%-11s | %7s | %5s | %14s | %20s@." "Program" "Mutants"
    "Runs" "Detected plain" "Detected adversarial";
  List.iter
    (fun r ->
      let pct x =
        if r.runs = 0 then 0.0 else 100.0 *. float_of_int x /. float_of_int r.runs
      in
      Format.fprintf ppf "%-11s | %7d | %5d | %8d (%2.0f%%) | %12d (%3.0f%%)@."
        r.workload r.mutants r.runs r.detected_plain (pct r.detected_plain)
        r.detected_adversarial
        (pct r.detected_adversarial))
    rows

type agreement_row = {
  workload : string;
  traces : int;
  violating : int;
  agreements : int;
}

(* Replay one recorded trace through the engine trio; true when the
   verdict, the first violating event and (for Aero vs Basic) the
   warning sets all agree. *)
let trio_agrees names trace =
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
    ( w.Warning.kind, w.Warning.tid, w.Warning.label, w.Warning.index,
      Warning.message w )
  in
  let agree =
    E.has_error e = B.has_error b
    && B.has_error b = A.has_error a
    && E.first_error_index e = B.first_error_index b
    && B.first_error_index b = A.first_error_index a
    && List.sort compare (List.map proj (A.warnings a))
       = List.sort compare (List.map proj (B.warnings b))
  in
  (agree, A.has_error a && agree)

let agreement ?(size = Workload.Medium) ?(seeds = [ 1; 2; 3; 4; 5 ]) () =
  List.map
    (fun (w : Workload.t) ->
      let program = w.Workload.build size in
      let names = program.Velodrome_sim.Ast.names in
      let traces = ref 0 and violating = ref 0 and agreements = ref 0 in
      List.iter
        (fun adversarial ->
          List.iter
            (fun seed ->
              let res =
                Common.run_once ~seed ~adversarial ~record_trace:true program
                  (fun _ -> [])
              in
              match res.Velodrome_sim.Run.trace with
              | None -> ()
              | Some tr ->
                incr traces;
                let agree, violates = trio_agrees names tr in
                if agree then incr agreements;
                if violates then incr violating)
            seeds)
        [ false; true ];
      {
        workload = w.Workload.name;
        traces = !traces;
        violating = !violating;
        agreements = !agreements;
      })
    Workload.all

let print_agreement ppf rows =
  Format.fprintf ppf "%-11s | %6s | %9s | %5s@." "Program" "Traces"
    "Violating" "Agree";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-11s | %6d | %9d | %5s@." r.workload r.traces
        r.violating
        (if r.agreements = r.traces then "all"
         else Printf.sprintf "%d/%d" r.agreements r.traces))
    rows
