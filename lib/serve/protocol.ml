module Registry = Layered_analysis.Registry
module Models = Layered_analysis.Models

type request =
  | Classify_valence of { model : string; n : int; t : int; depth : int }
  | Run_experiment of { id : string }
  | Sweep of { model : string; n : int; t : int; depth : int }
  | Stats_query
  | Shutdown

type error_code =
  | Parse
  | Bad_request
  | Out_of_range
  | Unknown_experiment
  | Unknown_model
  | Internal
  | Timeout
  | Cancelled

let error_code_name = function
  | Parse -> "parse"
  | Bad_request -> "bad-request"
  | Out_of_range -> "out-of-range"
  | Unknown_experiment -> "unknown-experiment"
  | Unknown_model -> "unknown-model"
  | Internal -> "internal"
  | Timeout -> "timeout"
  | Cancelled -> "cancelled"

let error_code_of_name = function
  | "parse" -> Some Parse
  | "bad-request" -> Some Bad_request
  | "out-of-range" -> Some Out_of_range
  | "unknown-experiment" -> Some Unknown_experiment
  | "unknown-model" -> Some Unknown_model
  | "internal" -> Some Internal
  | "timeout" -> Some Timeout
  | "cancelled" -> Some Cancelled
  | _ -> None

type response =
  | Resp_ok of { id : int option; exit_code : int; output : string }
  | Resp_error of { id : int option; code : error_code; message : string }
  | Resp_overloaded of {
      id : int option;
      reason : [ `Queue | `Memory | `Client ];
      retry_after_s : float option;
    }

(* The CLI's parse-time lower bounds, plus upper caps: a daemon must not
   let one request size an exponential state space to fill the heap.
   The caps comfortably cover every workload in the test-suite and the
   registry (n <= 5, t <= 2, depth <= 8 across all experiments). *)
let max_n = 8
let max_t = 4
let max_depth = 12
let max_line_bytes = 65536

let reason_name = function
  | `Queue -> "queue-depth"
  | `Memory -> "memory"
  | `Client -> "per-client"

let reason_of_name = function
  | "queue-depth" -> Some `Queue
  | "memory" -> Some `Memory
  | "per-client" -> Some `Client
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Decoding                                                           *)

type 'a decode = ('a, error_code * string) result

let ( let* ) (x : 'a decode) f = match x with Ok v -> f v | Error _ as e -> e

let get_int obj key : int decode =
  match Jsonx.member key obj with
  | None -> Error (Bad_request, Printf.sprintf "missing member %S" key)
  | Some j -> (
      match Jsonx.to_int j with
      | Some i -> Ok i
      | None -> Error (Bad_request, Printf.sprintf "member %S must be an integer" key))

let get_str obj key : string decode =
  match Jsonx.member key obj with
  | None -> Error (Bad_request, Printf.sprintf "missing member %S" key)
  | Some j -> (
      match Jsonx.to_str j with
      | Some s -> Ok s
      | None -> Error (Bad_request, Printf.sprintf "member %S must be a string" key))

let in_range ~what ~lo ~hi v : int decode =
  if v < lo || v > hi then
    Error
      ( Out_of_range,
        Printf.sprintf "%s must be between %d and %d (got %d)" what lo hi v )
  else Ok v

let model_params obj : (string * int * int * int) decode =
  let* model = get_str obj "model" in
  let* model =
    if List.mem model Models.names then Ok model
    else
      Error
        ( Unknown_model,
          Printf.sprintf "unknown model %S (expected one of %s)" model
            (String.concat ", " Models.names) )
  in
  let* n = get_int obj "n" in
  let* n = in_range ~what:"n" ~lo:2 ~hi:max_n n in
  let* t = get_int obj "t" in
  let* t = in_range ~what:"t" ~lo:0 ~hi:max_t t in
  let* depth = get_int obj "depth" in
  let* depth = in_range ~what:"depth" ~lo:0 ~hi:max_depth depth in
  Ok (model, n, t, depth)

let decode_request line =
  match Jsonx.of_string line with
  | Error msg -> Error (None, Parse, "malformed JSON: " ^ msg)
  | Ok (Jsonx.Obj _ as obj) -> (
      (* The id decodes before anything else so every later rejection
         can still be matched to its request by the client. *)
      let id =
        match Jsonx.member "id" obj with
        | Some j -> Jsonx.to_int j
        | None -> None
      in
      let tag_err (code, msg) = Error (id, code, msg) in
      match Jsonx.member "id" obj with
      | Some j when Jsonx.to_int j = None ->
          tag_err (Bad_request, "member \"id\" must be an integer")
      | _ -> (
          match get_str obj "op" with
          | Error e -> tag_err e
          | Ok op -> (
              let decoded : request decode =
                match op with
                | "classify-valence" ->
                    let* model, n, t, depth = model_params obj in
                    Ok (Classify_valence { model; n; t; depth })
                | "sweep" ->
                    let* model, n, t, depth = model_params obj in
                    Ok (Sweep { model; n; t; depth })
                | "run-experiment" -> (
                    let* eid = get_str obj "experiment" in
                    match Registry.find eid with
                    | Some e -> Ok (Run_experiment { id = e.Registry.id })
                    | None ->
                        Error
                          (Unknown_experiment, Printf.sprintf "unknown experiment %S" eid))
                | "stats" -> Ok Stats_query
                | "shutdown" -> Ok Shutdown
                | other ->
                    Error (Bad_request, Printf.sprintf "unknown op %S" other)
              in
              match decoded with
              | Ok req -> Ok (id, req)
              | Error e -> tag_err e)))
  | Ok _ -> Error (None, Parse, "request must be a JSON object")

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)

let id_member id =
  ("id", match id with Some i -> Jsonx.Int i | None -> Jsonx.Null)

let encode_request ?id req =
  let base =
    match req with
    | Classify_valence { model; n; t; depth } ->
        [
          ("op", Jsonx.String "classify-valence");
          ("model", Jsonx.String model);
          ("n", Jsonx.Int n);
          ("t", Jsonx.Int t);
          ("depth", Jsonx.Int depth);
        ]
    | Sweep { model; n; t; depth } ->
        [
          ("op", Jsonx.String "sweep");
          ("model", Jsonx.String model);
          ("n", Jsonx.Int n);
          ("t", Jsonx.Int t);
          ("depth", Jsonx.Int depth);
        ]
    | Run_experiment { id } ->
        [ ("op", Jsonx.String "run-experiment"); ("experiment", Jsonx.String id) ]
    | Stats_query -> [ ("op", Jsonx.String "stats") ]
    | Shutdown -> [ ("op", Jsonx.String "shutdown") ]
  in
  let members =
    match id with Some i -> ("id", Jsonx.Int i) :: base | None -> base
  in
  Jsonx.to_string (Jsonx.Obj members)

let encode_response = function
  | Resp_ok { id; exit_code; output } ->
      Jsonx.to_string
        (Jsonx.Obj
           [
             id_member id;
             ("status", Jsonx.String "ok");
             ("exit", Jsonx.Int exit_code);
             ("output", Jsonx.String output);
           ])
  | Resp_error { id; code; message } ->
      Jsonx.to_string
        (Jsonx.Obj
           [
             id_member id;
             ("status", Jsonx.String "error");
             ("code", Jsonx.String (error_code_name code));
             ("message", Jsonx.String message);
           ])
  | Resp_overloaded { id; reason; retry_after_s } ->
      Jsonx.to_string
        (Jsonx.Obj
           ([
              id_member id;
              ("status", Jsonx.String "overloaded");
              ("reason", Jsonx.String (reason_name reason));
            ]
           @
           match retry_after_s with
           | Some s -> [ ("retry-after", Jsonx.Float s) ]
           | None -> []))

let decode_response line =
  match Jsonx.of_string line with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok obj -> (
      let id =
        match Jsonx.member "id" obj with
        | Some j -> Jsonx.to_int j
        | None -> None
      in
      match Option.bind (Jsonx.member "status" obj) Jsonx.to_str with
      | None -> Error "missing or non-string \"status\""
      | Some "ok" -> (
          match
            ( Option.bind (Jsonx.member "exit" obj) Jsonx.to_int,
              Option.bind (Jsonx.member "output" obj) Jsonx.to_str )
          with
          | Some exit_code, Some output -> Ok (Resp_ok { id; exit_code; output })
          | _ -> Error "ok response lacks integer \"exit\" or string \"output\"")
      | Some "error" -> (
          match
            ( Option.bind (Jsonx.member "code" obj) Jsonx.to_str,
              Option.bind (Jsonx.member "message" obj) Jsonx.to_str )
          with
          | Some code, Some message -> (
              match error_code_of_name code with
              | Some code -> Ok (Resp_error { id; code; message })
              | None -> Error (Printf.sprintf "unknown error code %S" code))
          | _ -> Error "error response lacks \"code\" or \"message\"")
      | Some "overloaded" -> (
          match Option.bind (Jsonx.member "reason" obj) Jsonx.to_str with
          | Some r -> (
              match reason_of_name r with
              | Some reason ->
                  let retry_after_s =
                    match Jsonx.member "retry-after" obj with
                    | Some (Jsonx.Float s) when s >= 0. -> Some s
                    | Some (Jsonx.Int s) when s >= 0 -> Some (float_of_int s)
                    | _ -> None
                  in
                  Ok (Resp_overloaded { id; reason; retry_after_s })
              | None -> Error (Printf.sprintf "unknown overload reason %S" r))
          | None -> Error "overloaded response lacks \"reason\"")
      | Some other -> Error (Printf.sprintf "unknown status %S" other))

let cache_key = function
  | Classify_valence { model; n; t; depth } ->
      Some (Printf.sprintf "classify/%s/%d/%d/%d" model n t depth)
  | Sweep { model; n; t; depth } ->
      Some (Printf.sprintf "sweep/%s/%d/%d/%d" model n t depth)
  | Run_experiment { id } -> Some ("run/" ^ id)
  | Stats_query | Shutdown -> None
