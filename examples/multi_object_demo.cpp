// Per-object quorums: many replicated objects, each with its own
// placement and protocol, on the paper's network — some keys stay
// writable through a partition that blocks others, and a regenerable
// witness keeps a two-copy object alive through a slow hardware repair.
//
// Build & run:  ./build/examples/multi_object_demo

#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "core/regenerating.h"
#include "core/registry.h"
#include "kv/kv_store.h"
#include "model/site_profile.h"

using namespace dynvote;

namespace {

void Show(const char* what, const Status& st) {
  std::cout << "  " << what << " -> " << st << "\n";
}

void Show(const char* what, const Result<std::string>& r) {
  std::cout << "  " << what << " -> "
            << (r.ok() ? *r : r.status().ToString()) << "\n";
}

}  // namespace

int main() {
  auto network = MakePaperNetwork();
  if (!network.ok()) {
    std::cerr << network.status() << "\n";
    return 1;
  }
  auto topo = network->topology;
  NetworkState net(topo);

  std::cout << "== Per-object quorums on the paper's network ==\n\n";

  // Three objects, each its own replicated store with its own placement
  // and protocol, so each keeps its own quorum.
  struct ObjectSpec {
    const char* key;
    SiteSet placement;
    const char* protocol;
  };
  std::map<std::string, std::unique_ptr<ReplicatedKvStore>> objects;
  for (const ObjectSpec& spec :
       {ObjectSpec{"local", SiteSet{0, 1, 2}, "LDV"},            // main only
        ObjectSpec{"spread", SiteSet{0, 5, 7}, "LDV"},           // config C
        ObjectSpec{"clustered", SiteSet{0, 1, 2, 3}, "TDV"}}) {  // E
    auto protocol = MakeProtocolByName(spec.protocol, topo, spec.placement);
    if (!protocol.ok()) {
      std::cerr << protocol.status() << "\n";
      return 1;
    }
    auto store = ReplicatedKvStore::Make(protocol.MoveValue());
    if (!store.ok()) {
      std::cerr << store.status() << "\n";
      return 1;
    }
    objects[spec.key] = store.MoveValue();
  }
  auto put = [&](const std::string& key, std::string value) {
    return objects.at(key)->Put(net, 0, key, std::move(value));
  };
  auto get = [&](SiteId origin, const std::string& key) {
    return objects.at(key)->Get(net, origin, key);
  };
  auto notify = [&] {
    for (auto& [key, object] : objects) {
      object->protocol()->OnNetworkEvent(net);
    }
  };

  Show("Put(local)", put("local", "on-main"));
  Show("Put(spread)", put("spread", "across-gateways"));
  Show("Put(clustered)", put("clustered", "same-segment"));

  std::cout << "\nGateway wizard fails — gremlin's segment cut off:\n";
  net.SetSiteUp(3, false);
  notify();
  Show("Get(local)  [unaffected]", get(0, "local"));
  Show("Get(spread) [adapted: {csvax, mangle} majority]", get(0, "spread"));
  Show("Get(clustered) [TDV carries wizard's vote]", get(0, "clustered"));

  std::cout << "\nAmos fails too; csvax and beowulf as well:\n";
  for (SiteId s : {4, 0, 1}) {
    net.SetSiteUp(s, false);
    notify();
  }
  Show("Get(local)   [only grendel of {csvax,beowulf,grendel} is up]",
       get(2, "local"));
  Show("Get(spread)  [no quorum anywhere]", get(2, "spread"));
  Show("Get(clustered) [TDV: grendel carries its dead segment-mates]",
       get(2, "clustered"));

  net.AllUp();
  notify();

  // A regenerable witness on its own object: data on csvax + gremlin,
  // witness on mangle; when mangle goes down for a two-week repair the
  // majority block replaces the witness instead of waiting.
  std::cout << "\n== Regenerable witness ==\n";
  RegeneratingOptions options;
  options.regeneration_threshold = 2;
  auto regen = RegeneratingVoting::Make(topo, SiteSet{0, 5}, SiteSet{7},
                                        options);
  if (!regen.ok()) {
    std::cerr << regen.status() << "\n";
    return 1;
  }
  RegeneratingVoting& file = **regen;
  std::cout << "  members: " << file.placement()
            << " (witness on mangle)\n";
  net.SetSiteUp(7, false);  // mangle: ~2-week hardware repair
  file.OnNetworkEvent(net);
  net.SetSiteUp(6, false);  // unrelated events advance the miss counter
  file.OnNetworkEvent(net);
  net.SetSiteUp(6, true);
  file.OnNetworkEvent(net);
  std::cout << "  mangle down for " << 3
            << " refreshes -> witness regenerated, members now "
            << file.placement() << " (regenerations: "
            << file.regenerations() << ")\n";
  std::cout << "  write with csvax + fresh witness while gremlin fails: ";
  net.SetSiteUp(5, false);
  file.OnNetworkEvent(net);
  std::cout << file.Write(net, 0) << "\n";
  return 0;
}
