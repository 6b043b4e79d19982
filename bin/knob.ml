(* Command-line converters for the engine knobs, shared by ranav and
   tamc.  Abstraction and slicing parse and print through the same
   functions as their TAMC_* environment variables, so the flag and
   the variable accept exactly the same spellings. *)

open Cmdliner
module Reach = Ita_mc.Reach

let of_parser parse name =
  let parse s =
    Result.map_error (fun m -> `Msg (Printf.sprintf "%S: %s" s m)) (parse s)
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (name v))

let abstraction = of_parser Reach.parse_abstraction Reach.abstraction_name
let slicing = of_parser Reach.parse_slicing Reach.slicing_name

let order =
  let parse = function
    | "bfs" -> Ok Reach.Bfs
    | "dfs" -> Ok Reach.Dfs
    | "rdfs" -> Ok (Reach.Random_dfs 1)
    | s -> Error (`Msg (Printf.sprintf "unknown order %S" s))
  in
  let print ppf o =
    Format.pp_print_string ppf
      (match o with
      | Reach.Bfs -> "bfs"
      | Reach.Dfs -> "dfs"
      | Reach.Random_dfs _ -> "rdfs")
  in
  Arg.conv (parse, print)
