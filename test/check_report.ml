(* Shape check for the JSON report documents the CLI emits: `races
   --format json` and `analyze --format json` (with or without --values,
   --races, --gate and --predict). CI runs the analyze gates and then
   this checker on their reports, so a refactor that breaks an emitter —
   wrong field name, wrong type, a summary that miscounts its own pairs
   — fails the build instead of silently uploading a malformed artifact.

   Usage: check_report.exe FILE KIND [FILE KIND ...]
   where KIND is races or analyze. A file holds one document or a JSON
   array of them (analyze --all). *)

open Velodrome_util

type field_ty = S | I | B

let type_ok ty v =
  match (ty, v) with
  | S, Json.String _ | I, Json.Int _ | B, Json.Bool _ -> true
  | _ -> false

let ty_name = function S -> "string" | I -> "int" | B -> "bool"
let fail ctx msg = failwith (Printf.sprintf "%s: %s" ctx msg)

let obj_fields ctx = function
  | Json.Obj fields -> fields
  | _ -> fail ctx "not an object"

let get ctx fields name =
  match List.assoc_opt name fields with
  | Some v -> v
  | None -> fail ctx (Printf.sprintf "missing field %S" name)

let expect ctx ty v =
  if not (type_ok ty v) then
    fail ctx (Printf.sprintf "expected a %s" (ty_name ty))

let expect_field ctx fields name ty =
  expect (ctx ^ "." ^ name) ty (get ctx fields name)

let check_ints ctx fields names =
  List.iter (fun n -> expect_field ctx fields n I) names

let expect_list ctx fields name =
  match get ctx fields name with
  | Json.List _ -> ()
  | _ -> fail ctx (name ^ " is not an array")

let check_position ctx = function
  | Json.Null -> ()
  | v ->
    let f = obj_fields ctx v in
    check_ints ctx f [ "line"; "col" ]

let check_race_access ctx v =
  let f = obj_fields ctx v in
  expect_field ctx f "site" S;
  (match get ctx f "access" with
  | Json.String ("read" | "write") -> ()
  | _ -> fail ctx "access is not \"read\" or \"write\"");
  (match get ctx f "locks" with
  | Json.List ls -> List.iter (expect (ctx ^ ".locks[]") S) ls
  | _ -> fail ctx "locks is not an array");
  (match get ctx f "atomic" with
  | Json.Null | Json.String _ -> ()
  | _ -> fail ctx "atomic is not a string or null");
  check_position (ctx ^ ".position") (get ctx f "position")

let check_file_field ctx f =
  match List.assoc_opt "file" f with
  | None -> ()
  | Some v -> expect (ctx ^ ".file") S v

let check_races_doc ctx v =
  let f = obj_fields ctx v in
  check_file_field ctx f;
  let pairs =
    match get ctx f "pairs" with
    | Json.List ps -> ps
    | _ -> fail ctx "pairs is not an array"
  in
  List.iteri
    (fun i p ->
      let ctx = Printf.sprintf "%s.pairs[%d]" ctx i in
      let pf = obj_fields ctx p in
      expect_field ctx pf "var" S;
      expect_field ctx pf "explanation" S;
      check_race_access (ctx ^ ".a") (get ctx pf "a");
      check_race_access (ctx ^ ".b") (get ctx pf "b"))
    pairs;
  let s = obj_fields (ctx ^ ".summary") (get ctx f "summary") in
  check_ints (ctx ^ ".summary") s
    [ "pairs"; "racy_vars"; "access_sites"; "blocks"; "proved" ];
  (* Internal consistency: the summary must count the pairs array. *)
  match List.assoc_opt "pairs" s with
  | Some (Json.Int n) when n <> List.length pairs ->
    fail ctx
      (Printf.sprintf "summary.pairs = %d but %d pairs listed" n
         (List.length pairs))
  | _ -> ()

let check_analyze_doc ctx v =
  let f = obj_fields ctx v in
  check_file_field ctx f;
  (match get ctx f "blocks" with
  | Json.List bs ->
    List.iteri
      (fun i b ->
        let ctx = Printf.sprintf "%s.blocks[%d]" ctx i in
        let bf = obj_fields ctx b in
        expect_field ctx bf "label" S;
        (match get ctx bf "verdict" with
        | Json.String ("proved-atomic" | "may-violate" | "unknown") -> ()
        | _ ->
          fail ctx
            "verdict is not \"proved-atomic\", \"may-violate\" or \
             \"unknown\"");
        match get ctx bf "proof" with
        | Json.Null | Json.String ("lipton" | "cycle-free") -> ()
        | _ -> fail ctx "proof is not \"lipton\", \"cycle-free\" or null")
      bs
  | _ -> fail ctx "blocks is not an array");
  let s = obj_fields (ctx ^ ".summary") (get ctx f "summary") in
  check_ints (ctx ^ ".summary") s
    [
      "blocks";
      "proved";
      "proved_lipton";
      "proved_cycle_free";
      "may_violate";
      "unknown";
      "race_pairs";
      "racy_vars";
      "dead_sites";
      "dead_branches";
    ];
  (match List.assoc_opt "values" f with
  | None | Some Json.Null -> ()
  | Some v ->
    let ctx = ctx ^ ".values" in
    let vf = obj_fields ctx v in
    expect_list ctx vf "facts";
    expect_list ctx vf "dead_branches");
  (match List.assoc_opt "gate" f with
  | None -> ()
  | Some g ->
    let ctx = ctx ^ ".gate" in
    let gf = obj_fields ctx g in
    check_ints ctx gf [ "schedules"; "dynamic_warnings" ];
    expect_field ctx gf "ok" B;
    List.iter (expect_list ctx gf)
      [ "mismatches"; "uncovered_blames"; "uncovered_races"; "value_violations" ]);
  match List.assoc_opt "races" f with
  | None -> ()
  | Some r -> check_races_doc (ctx ^ ".races") r

let check_file file kind =
  let check_doc =
    match kind with
    | "races" -> check_races_doc
    | "analyze" -> check_analyze_doc
    | _ -> failwith (Printf.sprintf "unknown report kind %S" kind)
  in
  let contents =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error msg -> failwith msg
  in
  match Json.of_string contents with
  | Error msg -> failwith (Printf.sprintf "%s: parse error: %s" file msg)
  | Ok (Json.List []) -> failwith (Printf.sprintf "%s: no documents" file)
  | Ok (Json.List docs) ->
    List.iteri
      (fun i d -> check_doc (Printf.sprintf "%s: doc %d" file i) d)
      docs;
    Printf.printf "%s: %d %s documents ok\n" file (List.length docs) kind
  | Ok doc ->
    check_doc file doc;
    Printf.printf "%s: 1 %s document ok\n" file kind

let usage () =
  prerr_endline "usage: check_report.exe FILE KIND [FILE KIND ...]";
  exit 2

let () =
  let rec pairs = function
    | [] -> []
    | file :: kind :: rest -> (file, kind) :: pairs rest
    | [ _ ] -> usage ()
  in
  match pairs (List.tl (Array.to_list Sys.argv)) with
  | [] -> usage ()
  | specs -> (
    try List.iter (fun (file, kind) -> check_file file kind) specs
    with Failure msg ->
      Printf.eprintf "check_report: %s\n" msg;
      exit 1)
