(* Unit tests for the bcc_server building blocks: the JSON codec, the
   LRU cache, the metrics registry and HTTP request parsing.  The
   end-to-end daemon test lives in test_bccd.ml. *)

module Json = Bcc_server.Json
module Cache = Bcc_server.Cache
module Metrics = Bcc_server.Metrics
module Http = Bcc_server.Http

let qtest = QCheck_alcotest.to_alcotest

(* --- json --- *)

let json_eq = Alcotest.testable (fun ppf j -> Format.pp_print_string ppf (Json.to_string j)) ( = )

let roundtrip j = Json.of_string_exn (Json.to_string j)

let json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Num 0.0;
      Json.Num 42.0;
      Json.Num (-17.25);
      Json.Num 1.5e300;
      Json.Str "";
      Json.Str "plain";
      Json.Str "esc \" \\ \n \r \t \b \012 quotes";
      Json.Str "unicode: caf\xc3\xa9";
      Json.List [];
      Json.List [ Json.Num 1.0; Json.Str "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Num 1.0);
          ("nested", Json.Obj [ ("list", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter (fun j -> Alcotest.check json_eq "roundtrip" j (roundtrip j)) cases

let json_nonfinite () =
  Alcotest.(check string) "inf" {|"inf"|} (Json.to_string (Json.Num infinity));
  Alcotest.(check string) "-inf" {|"-inf"|} (Json.to_string (Json.Num neg_infinity));
  Alcotest.(check string) "nan" {|"nan"|} (Json.to_string (Json.Num nan));
  List.iter
    (fun x ->
      let back = Json.get_num (Json.of_string_exn (Json.to_string (Json.Num x))) in
      Alcotest.(check bool) (Printf.sprintf "%F reads back" x) true
        (match back with Some y -> Float.equal x y | None -> false))
    [ nan; infinity; neg_infinity ]

let json_escapes () =
  (* \u escapes decode to UTF-8, including surrogate pairs. *)
  Alcotest.check json_eq "u-escape" (Json.Str "A")
    (Json.of_string_exn {|"A"|});
  Alcotest.check json_eq "2-byte" (Json.Str "\xc2\xa2")
    (Json.of_string_exn {|"¢"|});
  Alcotest.check json_eq "3-byte" (Json.Str "\xe2\x82\xac")
    (Json.of_string_exn {|"€"|});
  Alcotest.check json_eq "surrogate pair" (Json.Str "\xf0\x9d\x84\x9e")
    (Json.of_string_exn {|"𝄞"|});
  Alcotest.check json_eq "slash escape" (Json.Str "a/b")
    (Json.of_string_exn {|"a\/b"|})

let json_whitespace_and_nesting () =
  Alcotest.check json_eq "whitespace everywhere"
    (Json.Obj [ ("a", Json.List [ Json.Num 1.0; Json.Num 2.0 ]); ("b", Json.Null) ])
    (Json.of_string_exn " {\r\n \"a\" : [ 1 , 2 ] ,\t\"b\" : null } \n")

let expect_error s =
  match Json.of_string s with
  | Ok j -> Alcotest.failf "expected parse error for %S, got %s" s (Json.to_string j)
  | Error _ -> ()

let json_rejects () =
  List.iter expect_error
    [
      "";
      "{";
      "[1,";
      "[1 2]";
      "{\"a\":}";
      "{\"a\" 1}";
      "tru";
      "nul";
      "01a";
      "\"unterminated";
      "\"bad \\q escape\"";
      "\"lone \\ud834 surrogate\"";
      (* the trailing-garbage cases the codec must reject *)
      "{} {}";
      "null null";
      "42 x";
      "[1] ,";
    ]

let json_fuzz_roundtrip =
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let scalar =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun f -> Json.Num f) (float_bound_inclusive 1e6);
                map (fun i -> Json.Num (float_of_int i)) small_signed_int;
                map (fun s -> Json.Str s) (string_size ~gen:printable (0 -- 10));
              ]
          in
          if n <= 0 then scalar
          else
            frequency
              [
                (2, scalar);
                (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2))));
                ( 1,
                  map
                    (fun l -> Json.Obj l)
                    (list_size (0 -- 4)
                       (pair (string_size ~gen:printable (0 -- 6)) (self (n / 2)))) );
              ]))
  in
  QCheck.Test.make ~name:"json to_string/of_string roundtrip" ~count:200
    (QCheck.make ~print:Json.to_string gen)
    (fun j -> roundtrip j = j)

(* --- cache --- *)

let cache_lru_eviction () =
  let c = Cache.create ~capacity:2 in
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  (* touch "a" so "b" is the LRU victim *)
  Alcotest.(check (option int)) "a hit" (Some 1) (Cache.find c "a");
  Cache.put c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Cache.find c "c");
  Alcotest.(check int) "evictions" 1 (Cache.evictions c);
  Alcotest.(check (list string)) "mru order" [ "c"; "a" ] (Cache.keys_mru c)

let cache_counters () =
  let c = Cache.create ~capacity:4 in
  ignore (Cache.find c "missing");
  Cache.put c "k" 7;
  ignore (Cache.find c "k");
  ignore (Cache.find c "k");
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c);
  let v, hit = Cache.find_or_add c "k" (fun () -> Alcotest.fail "must not recompute") in
  Alcotest.(check bool) "find_or_add hit" true hit;
  Alcotest.(check int) "value" 7 v;
  let v, hit = Cache.find_or_add c "fresh" (fun () -> 9) in
  Alcotest.(check bool) "find_or_add miss" false hit;
  Alcotest.(check int) "computed" 9 v;
  Alcotest.(check int) "length" 2 (Cache.length c)

let cache_update_refreshes () =
  let c = Cache.create ~capacity:2 in
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  Cache.put c "a" 10;
  (* refreshed, so "b" gets evicted next *)
  Cache.put c "c" 3;
  Alcotest.(check (option int)) "updated value" (Some 10) (Cache.find c "a");
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b")

let cache_concurrent () =
  (* Hammer one shared cache from several threads; the structure must
     stay consistent (no torn lists, length bounded by capacity). *)
  let c = Cache.create ~capacity:16 in
  let worker seed () =
    let st = Random.State.make [| seed |] in
    for _ = 1 to 2000 do
      let k = "k" ^ string_of_int (Random.State.int st 64) in
      if Random.State.bool st then Cache.put c k seed
      else ignore (Cache.find c k)
    done
  in
  let threads = List.init 4 (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join threads;
  Alcotest.(check bool) "length within capacity" true (Cache.length c <= 16);
  Alcotest.(check int) "mru list matches table" (Cache.length c)
    (List.length (Cache.keys_mru c))

(* --- metrics --- *)

let contains ~needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let assert_contains rendered needle =
  if not (contains ~needle rendered) then
    Alcotest.failf "expected %S in rendered metrics:\n%s" needle rendered

let metrics_counters_and_gauges () =
  let m = Metrics.create () in
  Metrics.inc m "req_total" ~labels:[ ("code", "200") ];
  Metrics.inc m "req_total" ~labels:[ ("code", "200") ];
  Metrics.inc m "req_total" ~labels:[ ("code", "503") ];
  Metrics.set m "depth" 3.0;
  Alcotest.(check (float 0.0)) "counter" 2.0
    (Metrics.counter_value m "req_total" ~labels:[ ("code", "200") ]);
  let r = Metrics.render m in
  assert_contains r "# TYPE req_total counter";
  assert_contains r "req_total{code=\"200\"} 2";
  assert_contains r "req_total{code=\"503\"} 1";
  assert_contains r "# TYPE depth gauge";
  assert_contains r "depth 3"

let metrics_histogram () =
  let m = Metrics.create () in
  Metrics.observe m "lat" ~buckets:[| 0.1; 1.0 |] 0.05;
  Metrics.observe m "lat" ~buckets:[| 0.1; 1.0 |] 0.5;
  Metrics.observe m "lat" ~buckets:[| 0.1; 1.0 |] 30.0;
  let r = Metrics.render m in
  assert_contains r "lat_bucket{le=\"0.1\"} 1";
  assert_contains r "lat_bucket{le=\"1\"} 2";
  (* cumulative: +Inf counts everything *)
  assert_contains r "lat_bucket{le=\"+Inf\"} 3";
  assert_contains r "lat_count 3";
  assert_contains r "lat_sum 30.55"

let metrics_label_escaping () =
  let m = Metrics.create () in
  Metrics.inc m "c" ~labels:[ ("path", "a\"b\\c\nd") ];
  assert_contains (Metrics.render m) {|c{path="a\"b\\c\nd"} 1|}

let metrics_kind_clash () =
  let m = Metrics.create () in
  Metrics.inc m "x";
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: x registered as counter, used as gauge")
    (fun () -> Metrics.set m "x" 1.0)

let metrics_label_order () =
  (* The same label set in two textual orders must hit one series. *)
  let m = Metrics.create () in
  Metrics.inc m "lo" ~labels:[ ("a", "1"); ("b", "2") ];
  Metrics.inc m "lo" ~labels:[ ("b", "2"); ("a", "1") ];
  Alcotest.(check (float 0.0)) "one series" 2.0
    (Metrics.counter_value m "lo" ~labels:[ ("b", "2"); ("a", "1") ]);
  let r = Metrics.render m in
  assert_contains r {|lo{a="1",b="2"} 2|};
  if contains ~needle:{|lo{b="2",a="1"}|} r then
    Alcotest.failf "unsorted label order leaked into render:\n%s" r

let metrics_scalar_kinds () =
  let m = Metrics.create () in
  Metrics.inc m "c" ~by:3.0;
  Metrics.set m "g" 7.0;
  Alcotest.(check (float 0.0)) "counter read" 3.0 (Metrics.counter_value m "c");
  Alcotest.(check (float 0.0)) "gauge read" 7.0 (Metrics.gauge_value m "g");
  Alcotest.(check (float 0.0)) "absent family" 0.0 (Metrics.counter_value m "nope");
  Alcotest.(check (float 0.0)) "absent series" 0.0
    (Metrics.gauge_value m "g" ~labels:[ ("x", "y") ]);
  Alcotest.check_raises "gauge read as counter"
    (Invalid_argument "Metrics: g registered as gauge, used as counter")
    (fun () -> ignore (Metrics.counter_value m "g"));
  Alcotest.check_raises "counter read as gauge"
    (Invalid_argument "Metrics: c registered as counter, used as gauge")
    (fun () -> ignore (Metrics.gauge_value m "c"))

(* Rendered histogram bucket lines must carry non-decreasing cumulative
   counts, ending at the observation count on the +Inf bucket. *)
let metrics_histogram_monotone =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (0 -- 30) (float_bound_inclusive 50.0))
        (list_size (0 -- 6) (float_bound_inclusive 50.0)))
  in
  let print (obs, bounds) =
    Printf.sprintf "obs=[%s] bounds=[%s]"
      (String.concat ";" (List.map string_of_float obs))
      (String.concat ";" (List.map string_of_float bounds))
  in
  QCheck.Test.make ~name:"histogram buckets cumulative non-decreasing" ~count:200
    (QCheck.make ~print gen)
    (fun (obs, bounds) ->
      let buckets =
        match List.sort_uniq compare (List.filter (fun b -> b > 0.0) bounds) with
        | [] -> [| 1.0 |]
        | l -> Array.of_list l
      in
      let m = Metrics.create () in
      List.iter (fun x -> Metrics.observe m "h" ~buckets x) obs;
      if obs = [] then true
      else
        let lines = String.split_on_char '\n' (Metrics.render m) in
        let counts =
          List.filter_map
            (fun line ->
              if String.length line > 9 && String.sub line 0 9 = "h_bucket{" then
                match String.rindex_opt line ' ' with
                | Some i ->
                    Some
                      (int_of_float
                         (float_of_string
                            (String.sub line (i + 1) (String.length line - i - 1))))
                | None -> None
              else None)
            lines
        in
        List.length counts = Array.length buckets + 1
        && List.for_all2 ( <= )
             (List.filteri (fun i _ -> i < List.length counts - 1) counts)
             (List.tl counts)
        && List.nth counts (List.length counts - 1) = List.length obs)

(* --- http --- *)

(* Feed raw bytes through a pipe and parse them as a request. *)
let parse_raw raw =
  let r, w = Unix.pipe () in
  let writer =
    Thread.create
      (fun () ->
        let b = Bytes.of_string raw in
        let n = Bytes.length b in
        let rec go off =
          if off < n then go (off + Unix.write w b off (n - off))
        in
        go 0;
        Unix.close w)
      ()
  in
  let result = Http.read_request r in
  Thread.join writer;
  Unix.close r;
  result

let http_parse_basic () =
  match
    parse_raw
      "POST /solve?budget=4.5&x=a%20b HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\nContent-Type: text/plain\r\n\r\nhello"
  with
  | Error e -> Alcotest.failf "parse failed: %s" e.Http.message
  | Ok req ->
      Alcotest.(check string) "method" "POST" req.Http.meth;
      Alcotest.(check string) "path" "/solve" req.Http.path;
      Alcotest.(check (option string)) "budget" (Some "4.5")
        (Http.query_param req "budget");
      Alcotest.(check (option string)) "decoded" (Some "a b")
        (Http.query_param req "x");
      Alcotest.(check (option string)) "header case-insensitive" (Some "text/plain")
        (Http.header req "content-TYPE");
      Alcotest.(check string) "body" "hello" req.Http.body

let http_parse_no_body () =
  match parse_raw "GET /metrics HTTP/1.1\r\n\r\n" with
  | Error e -> Alcotest.failf "parse failed: %s" e.Http.message
  | Ok req ->
      Alcotest.(check string) "method" "GET" req.Http.meth;
      Alcotest.(check string) "body" "" req.Http.body

let http_parse_errors () =
  (match parse_raw "" with
  | Error e -> Alcotest.(check int) "empty" 400 e.Http.status_hint
  | Ok _ -> Alcotest.fail "empty request must not parse");
  (match parse_raw "BROKEN\r\n\r\n" with
  | Error e -> Alcotest.(check int) "bad request line" 400 e.Http.status_hint
  | Ok _ -> Alcotest.fail "bad request line must not parse");
  match parse_raw "POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort" with
  | Error e -> Alcotest.(check int) "truncated body" 400 e.Http.status_hint
  | Ok _ -> Alcotest.fail "truncated body must not parse"

let http_response_bytes () =
  let r, w = Unix.pipe () in
  Http.write_response w (Http.response 200 "hi");
  Unix.close w;
  let buf = Buffer.create 64 in
  let chunk = Bytes.create 256 in
  let rec drain () =
    match Unix.read r chunk 0 256 with
    | 0 -> ()
    | n -> Buffer.add_subbytes buf chunk 0 n; drain ()
  in
  drain ();
  Unix.close r;
  let s = Buffer.contents buf in
  assert_contains s "HTTP/1.1 200 OK\r\n";
  assert_contains s "content-length: 2\r\n";
  assert_contains s "connection: close\r\n";
  Alcotest.(check bool) "ends with body" true
    (String.length s > 2 && String.sub s (String.length s - 2) 2 = "hi")

let suite =
  [
    ("json roundtrip", `Quick, json_roundtrip);
    ("json non-finite numbers", `Quick, json_nonfinite);
    ("json unicode escapes", `Quick, json_escapes);
    ("json whitespace/nesting", `Quick, json_whitespace_and_nesting);
    ("json rejects malformed + trailing garbage", `Quick, json_rejects);
    qtest json_fuzz_roundtrip;
    ("cache lru eviction order", `Quick, cache_lru_eviction);
    ("cache hit/miss counters", `Quick, cache_counters);
    ("cache update refreshes recency", `Quick, cache_update_refreshes);
    ("cache concurrent hammering", `Quick, cache_concurrent);
    ("metrics counters and gauges", `Quick, metrics_counters_and_gauges);
    ("metrics histogram buckets", `Quick, metrics_histogram);
    ("metrics label escaping", `Quick, metrics_label_escaping);
    ("metrics kind clash rejected", `Quick, metrics_kind_clash);
    ("metrics label order canonical", `Quick, metrics_label_order);
    ("metrics scalar kind checks", `Quick, metrics_scalar_kinds);
    qtest metrics_histogram_monotone;
    ("http parse basic", `Quick, http_parse_basic);
    ("http parse no body", `Quick, http_parse_no_body);
    ("http parse errors", `Quick, http_parse_errors);
    ("http response bytes", `Quick, http_response_bytes);
  ]
