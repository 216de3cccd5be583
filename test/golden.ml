(* The committed digest table [golden.txt]: one "key md5" line per
   report surface.  test_analysis recomputes the analysis surfaces and
   regenerates the whole table; test_chaos checks the two self-check
   surfaces below from the runs it makes anyway. *)

let md5 s = Digest.to_hex (Digest.string s)

let read path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ key; hex ] -> Some (key, hex)
         | _ -> None)

(* The `layered oracles` table, as the CLI prints it. *)
let oracles rows =
  ("oracles", md5 (Format.asprintf "%a" Layered_core.Report.pp_table rows))

(* The `layered chaos --seed 42` report: one trial per cell. *)
let chaos r = ("chaos/seed42", md5 (Format.asprintf "@[<v>%a@]@." Layered_check.Chaos.pp r))

let self_check_keys = [ "oracles"; "chaos/seed42" ]

let check (key, hex) =
  Alcotest.(check (option string)) key (List.assoc_opt key (read "golden.txt")) (Some hex)
