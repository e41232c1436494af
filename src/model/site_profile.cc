#include "model/site_profile.h"

#include <map>

namespace dynvote {

double SiteProfile::MeanRepairDays() const {
  double hw_days = Hours(hw_repair_const_hours + hw_repair_exp_hours);
  double sw_days = Minutes(restart_minutes);
  return hardware_fraction * hw_days + (1.0 - hardware_fraction) * sw_days;
}

Result<PaperNetwork> MakePaperNetwork() {
  auto builder = Topology::Builder();
  SegmentId main_seg = builder.AddSegment("main");
  SegmentId second = builder.AddSegment("second");
  SegmentId third = builder.AddSegment("third");

  // Paper sites 1-5 on the main segment (ids 0-4); site 4 (wizard, id 3)
  // gateways to the second segment, site 5 (amos, id 4) to the third.
  SiteId csvax = builder.AddSite("csvax", main_seg);      // paper site 1
  builder.AddSite("beowulf", main_seg);                   // paper site 2
  builder.AddSite("grendel", main_seg);                   // paper site 3
  SiteId wizard = builder.AddSite("wizard", main_seg);    // paper site 4
  SiteId amos = builder.AddSite("amos", main_seg);        // paper site 5
  builder.AddSite("gremlin", second);                     // paper site 6
  builder.AddSite("rip", third);                          // paper site 7
  builder.AddSite("mangle", third);                       // paper site 8
  (void)csvax;
  builder.AddGateway(wizard, second);
  builder.AddGateway(amos, third);

  auto topo = builder.Build();
  if (!topo.ok()) return topo.status();

  // Table 1, in order. Maintenance: paper sites 1, 3 and 5 are down for
  // 3 hours every 90 days.
  std::vector<SiteProfile> profiles = {
      {"csvax", 36.5, 0.10, 20.0, 0.0, 2.0, 90.0, 3.0},
      {"beowulf", 10.0, 0.10, 15.0, 4.0, 24.0, 0.0, 0.0},
      {"grendel", 365.0, 0.90, 10.0, 0.0, 2.0, 90.0, 3.0},
      {"wizard", 50.0, 0.50, 15.0, 168.0, 168.0, 0.0, 0.0},
      {"amos", 365.0, 0.90, 10.0, 0.0, 2.0, 90.0, 3.0},
      {"gremlin", 50.0, 0.50, 15.0, 168.0, 168.0, 0.0, 0.0},
      {"rip", 50.0, 0.50, 15.0, 168.0, 168.0, 0.0, 0.0},
      {"mangle", 50.0, 0.50, 15.0, 168.0, 168.0, 0.0, 0.0},
  };

  return PaperNetwork{topo.MoveValue(), std::move(profiles)};
}

const std::vector<PaperConfiguration>& PaperConfigurations() {
  // Paper site numbers are one-based; ids are zero-based.
  static const std::vector<PaperConfiguration> configs = {
      {'A', SiteSet{0, 1, 3}, "1, 2, 4"},
      {'B', SiteSet{0, 1, 5}, "1, 2, 6"},
      {'C', SiteSet{0, 5, 7}, "1, 6, 8"},
      {'D', SiteSet{5, 6, 7}, "6, 7, 8"},
      {'E', SiteSet{0, 1, 2, 3}, "1, 2, 3, 4"},
      {'F', SiteSet{0, 1, 3, 5}, "1, 2, 4, 6"},
      {'G', SiteSet{0, 1, 5, 7}, "1, 2, 6, 8"},
      {'H', SiteSet{0, 1, 6, 7}, "1, 2, 7, 8"},
  };
  return configs;
}

const PaperConfiguration* PaperConfigurationFor(char label) {
  for (const PaperConfiguration& c : PaperConfigurations()) {
    if (c.label == label) return &c;
  }
  return nullptr;
}

namespace {

struct TableKey {
  char config;
  std::string policy;
  bool operator<(const TableKey& other) const {
    if (config != other.config) return config < other.config;
    return policy < other.policy;
  }
};

const std::map<TableKey, double>& Table2() {
  static const std::map<TableKey, double> values = {
      {{'A', "MCV"}, 0.002130},  {{'A', "DV"}, 0.004348},
      {{'A', "LDV"}, 0.000668},  {{'A', "ODV"}, 0.000849},
      {{'A', "TDV"}, 0.000015},  {{'A', "OTDV"}, 0.000013},
      {{'B', "MCV"}, 0.003871},  {{'B', "DV"}, 0.008281},
      {{'B', "LDV"}, 0.001214},  {{'B', "ODV"}, 0.001432},
      {{'B', "TDV"}, 0.000109},  {{'B', "OTDV"}, 0.000066},
      {{'C', "MCV"}, 0.031127},  {{'C', "DV"}, 0.056428},
      {{'C', "LDV"}, 0.001707},  {{'C', "ODV"}, 0.003492},
      {{'C', "TDV"}, 0.001707},  {{'C', "OTDV"}, 0.003492},
      {{'D', "MCV"}, 0.069342},  {{'D', "DV"}, 0.117683},
      {{'D', "LDV"}, 0.053592},  {{'D', "ODV"}, 0.053357},
      {{'D', "TDV"}, 0.034490},  {{'D', "OTDV"}, 0.031548},
      {{'E', "MCV"}, 0.000608},  {{'E', "DV"}, 0.000018},
      {{'E', "LDV"}, 0.000012},  {{'E', "ODV"}, 0.000084},
      {{'E', "TDV"}, 0.000000},  {{'E', "OTDV"}, 0.000000},
      {{'F', "MCV"}, 0.002761},  {{'F', "DV"}, 0.108034},
      {{'F', "LDV"}, 0.002154},  {{'F', "ODV"}, 0.000947},
      {{'F', "TDV"}, 0.000018},  {{'F', "OTDV"}, 0.000004},
      {{'G', "MCV"}, 0.002027},  {{'G', "DV"}, 0.001510},
      {{'G', "LDV"}, 0.000151},  {{'G', "ODV"}, 0.000339},
      {{'G', "TDV"}, 0.000041},  {{'G', "OTDV"}, 0.000036},
      {{'H', "MCV"}, 0.001408},  {{'H', "DV"}, 0.004275},
      {{'H', "LDV"}, 0.000171},  {{'H', "ODV"}, 0.000218},
      {{'H', "TDV"}, 0.000020},  {{'H', "OTDV"}, 0.000043},
  };
  return values;
}

const std::map<TableKey, double>& Table3() {
  static const std::map<TableKey, double> values = {
      {{'A', "MCV"}, 0.101968},  {{'A', "DV"}, 0.210651},
      {{'A', "LDV"}, 0.077353},  {{'A', "ODV"}, 0.084141},
      {{'A', "TDV"}, 0.10764},   {{'A', "OTDV"}, 0.05115},
      {{'B', "MCV"}, 0.101059},  {{'B', "DV"}, 0.217369},
      {{'B', "LDV"}, 0.078867},  {{'B', "ODV"}, 0.084387},
      {{'B', "TDV"}, 0.08650},   {{'B', "OTDV"}, 0.05337},
      {{'C', "MCV"}, 0.944336},  {{'C', "DV"}, 1.868895},
      {{'C', "LDV"}, 0.085960},  {{'C', "ODV"}, 0.173151},
      {{'C', "TDV"}, 0.085960},  {{'C', "OTDV"}, 0.173151},
      {{'D', "MCV"}, 3.000469},  {{'D', "DV"}, 5.850864},
      {{'D', "LDV"}, 7.443789},  {{'D', "ODV"}, 6.293645},
      {{'D', "TDV"}, 7.428305},  {{'D', "OTDV"}, 7.445393},
      {{'E', "MCV"}, 0.071134},  {{'E', "DV"}, 0.06363},
      {{'E', "LDV"}, 0.08102},   {{'E', "ODV"}, 0.05417},
      {{'E', "TDV"}, -1.0},      {{'E', "OTDV"}, -1.0},
      {{'F', "MCV"}, 0.102001},  {{'F', "DV"}, 5.962853},
      {{'F', "LDV"}, 0.275006},  {{'F', "ODV"}, 0.101756},
      {{'F', "TDV"}, 0.05556},   {{'F', "OTDV"}, 0.02252},
      {{'G', "MCV"}, 0.084714},  {{'G', "DV"}, 0.297879},
      {{'G', "LDV"}, 0.07787},   {{'G', "ODV"}, 0.073773},
      {{'G', "TDV"}, 0.12407},   {{'G', "OTDV"}, 0.04149},
      {{'H', "MCV"}, 0.078933},  {{'H', "DV"}, 0.142206},
      {{'H', "LDV"}, 0.135054},  {{'H', "ODV"}, 0.060009},
      {{'H', "TDV"}, 0.103171},  {{'H', "OTDV"}, 0.051964},
  };
  return values;
}

double Lookup(const std::map<TableKey, double>& table, char config,
              const std::string& policy) {
  auto it = table.find(TableKey{config, policy});
  return it == table.end() ? -1.0 : it->second;
}

}  // namespace

double PaperTable2Value(char config, const std::string& policy) {
  return Lookup(Table2(), config, policy);
}

double PaperTable3Value(char config, const std::string& policy) {
  return Lookup(Table3(), config, policy);
}

}  // namespace dynvote
