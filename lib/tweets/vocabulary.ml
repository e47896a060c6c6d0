type condition = {
  value : string;
  keywords : string list;
  confusions : string list;
}

let conditions =
  [ { value = "sunny";
      keywords = [ "sunshine"; "clear skies"; "bright sun"; "blue sky" ];
      confusions = [ "fine"; "hot" ] };
    { value = "rainy";
      keywords = [ "rain"; "drizzle"; "showers"; "downpour" ];
      confusions = [ "wet"; "stormy" ] };
    { value = "cloudy";
      keywords = [ "clouds"; "overcast"; "grey skies" ];
      confusions = [ "foggy"; "dull" ] };
    { value = "snowy";
      keywords = [ "snow"; "snowfall"; "flurries" ];
      confusions = [ "icy"; "cold" ] };
    { value = "stormy";
      keywords = [ "thunderstorm"; "typhoon"; "lightning" ];
      confusions = [ "rainy"; "windy" ] };
    { value = "foggy";
      keywords = [ "fog"; "mist"; "haze" ];
      confusions = [ "cloudy"; "smoggy" ] };
    { value = "windy";
      keywords = [ "strong wind"; "gusts"; "gales" ];
      confusions = [ "stormy"; "breezy" ] } ]

let condition_by_value v = List.find_opt (fun c -> String.equal c.value v) conditions

let cities =
  [ "Tsukuba"; "Tokyo"; "Osaka"; "Sapporo"; "Sendai"; "Nagoya"; "Kyoto";
    "Fukuoka"; "Hiroshima"; "Niigata"; "Kanazawa"; "Matsuyama"; "Naha";
    "Kobe"; "Yokohama"; "Chiba"; "Shizuoka"; "Okayama"; "Kumamoto"; "Akita" ]

let place_confusions = [ "Japan"; "Kanto" ]
let vague_values = [ "unsettled"; "changeable"; "mixed" ]
let unknown_place = "unknown"
