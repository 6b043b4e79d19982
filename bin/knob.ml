(* Command-line converters for the engine knobs, shared by ranav and
   tamc.  The domain count parses and prints through the same function
   as the TAMC_DOMAINS environment variable, so the flag and the
   variable accept exactly the same spellings. *)

open Cmdliner
module Reach = Ita_mc.Reach

let domains =
  let parse s =
    Result.map_error
      (fun m -> `Msg (Printf.sprintf "%S: %s" s m))
      (Reach.parse_domains s)
  in
  Arg.conv (parse, Format.pp_print_int)

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
