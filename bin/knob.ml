(* Command-line converters shared by ranav and tamc.  The domain count
   parses and prints through the same function as the TAMC_DOMAINS
   environment variable, so the flag and the variable accept exactly
   the same spellings. *)

open Cmdliner
module Reach = Ita_mc.Reach
module D = Ita_analysis.Diagnostic

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

(* lint severities, for [--fail-on] *)
let severity =
  let parse = function
    | "hint" -> Ok D.Hint
    | "info" -> Ok D.Info
    | "warning" -> Ok D.Warning
    | "error" -> Ok D.Error
    | s -> Error (`Msg (Printf.sprintf "unknown severity %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (D.severity_name s) in
  Arg.conv (parse, print)
