type status = Pass | Fail | Info

type row = {
  id : string;
  claim : string;
  params : string;
  expected : string;
  measured : string;
  status : status;
}

let row ~id ~claim ~params ~expected ~measured status =
  { id; claim; params; expected; measured; status }

let check ~id ~claim ~params ~expected ~measured ok =
  row ~id ~claim ~params ~expected ~measured (if ok then Pass else Fail)

let all_pass rows = List.for_all (fun r -> r.status <> Fail) rows

let status_string = function Pass -> "PASS" | Fail -> "FAIL" | Info -> "info"

let columns r =
  [ r.id; r.claim; r.params; r.expected; r.measured; status_string r.status ]

let headers = [ "id"; "claim"; "params"; "expected"; "measured"; "status" ]

let widths rows =
  let update ws cols = List.map2 (fun w c -> max w (String.length c)) ws cols in
  List.fold_left
    (fun ws r -> update ws (columns r))
    (List.map String.length headers)
    rows

let pad w s = s ^ String.make (max 0 (w - String.length s)) ' '

let pp_table ppf rows =
  let ws = widths rows in
  let line cols =
    Format.fprintf ppf "%s@." (String.concat "  " (List.map2 pad ws cols))
  in
  line headers;
  line (List.map (fun w -> String.make w '-') ws);
  List.iter (fun r -> line (columns r)) rows

let to_markdown rows =
  let buf = Buffer.create 1024 in
  let line cols =
    Buffer.add_string buf ("| " ^ String.concat " | " cols ^ " |\n")
  in
  line headers;
  line (List.map (fun _ -> "---") headers);
  List.iter (fun r -> line (columns r)) rows;
  Buffer.contents buf
