open Velodrome_trace
open Velodrome_util

type t = {
  slots : int array;
  tids : int array;
  labels : int array;
  blamed : int;
  ops : Op.t array;
}

let node_title names g i =
  let label =
    if g.labels.(i) >= 0 then
      Names.label_name names (Ids.Label.of_int g.labels.(i))
    else "(unary)"
  in
  Printf.sprintf "Thread %d: %s" g.tids.(i) label

let to_dot names ~name g =
  let n = Array.length g.slots in
  let id i = string_of_int g.slots.(i) in
  let nodes =
    List.init n (fun i ->
        { Dot.id = id i; label = node_title names g i; emphasized = i = g.blamed })
  in
  let edges =
    List.init n (fun i ->
        {
          Dot.src = id i;
          dst = id ((i + 1) mod n);
          edge_label = Format.asprintf "%a" (Op.pp_named names) g.ops.(i);
          dashed = i = n - 1;
        })
  in
  Dot.render ~name nodes edges

let pp_summary names ppf g =
  let title i =
    let l =
      if g.labels.(i) >= 0 then
        Names.label_name names (Ids.Label.of_int g.labels.(i))
      else "unary"
    in
    Printf.sprintf "%s(t%d)" l g.tids.(i)
  in
  if Array.length g.slots = 0 then Format.fprintf ppf "(empty cycle)"
  else begin
    Array.iteri (fun i _ -> Format.fprintf ppf "%s -> " (title i)) g.slots;
    Format.fprintf ppf "%s" (title 0)
  end
