#include "core/json_export.h"

#include <gtest/gtest.h>

#include "anomaly/injectors.h"

namespace vedr::core {
namespace {

TEST(Json, EscapesSpecials) {
  // Every string field of the diagnosis JSON goes through JsonWriter.
  const auto quoted = [](const std::string& v) {
    std::string out;
    obs::JsonWriter w(&out);
    w.value(v);
    return out;
  };
  EXPECT_EQ(quoted("plain"), "\"plain\"");
  EXPECT_EQ(quoted("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(quoted("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(quoted("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(quoted(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

TEST(Json, FindingRoundTripFields) {
  AnomalyFinding f;
  f.type = AnomalyType::kPfcStorm;
  f.step = 2;
  f.root_port = PortRef{20, 1};
  f.contending_flows = {anomaly::background_key(0, 1, 2)};
  f.pfc_chain = {PortRef{19, 2}, PortRef{20, 1}};
  std::string j;
  obs::JsonWriter w(&j);
  json::write_finding(w, f);
  EXPECT_NE(j.find("\"type\":\"PfcStorm\""), std::string::npos);
  EXPECT_NE(j.find("\"step\":2"), std::string::npos);
  EXPECT_NE(j.find("p(20.1)"), std::string::npos);
  EXPECT_NE(j.find("\"chain\":[\"p(19.2)\",\"p(20.1)\"]"), std::string::npos);
}

TEST(Json, DiagnosisSerializes) {
  Diagnosis d;
  d.collective_time = 1234567;
  d.critical_path = {{0, 0}, {1, 1}};
  d.contributions = {{anomaly::background_key(0, 1, 2), 42.5},
                     {anomaly::background_key(1, 3, 4), 1.0 / 3.0}};
  d.critical_flow_per_step = {0, 1};
  AnomalyFinding f;
  f.type = AnomalyType::kFlowContention;
  d.findings.push_back(f);

  const std::string j = json::diagnosis_to_json(d);
  EXPECT_NE(j.find("\"collective_time_ns\":1234567"), std::string::npos);
  EXPECT_NE(j.find("\"critical_path\":[{\"flow\":0,\"step\":0},{\"flow\":1,\"step\":1}]"),
            std::string::npos);
  EXPECT_NE(j.find("\"score\":42.5"), std::string::npos);
  // Scores keep six significant digits: the digested bytes are pinned.
  EXPECT_NE(j.find("\"score\":0.333333}"), std::string::npos) << j;
  EXPECT_NE(j.find("\"critical_flow_per_step\":[0,1]"), std::string::npos);
}

TEST(Json, DeterministicOutput) {
  Diagnosis d;
  d.collective_time = 99;
  EXPECT_EQ(json::diagnosis_to_json(d), json::diagnosis_to_json(d));
}

TEST(Json, BalancedBrackets) {
  Diagnosis d;
  AnomalyFinding f;
  f.type = AnomalyType::kIncast;
  f.contending_flows = {anomaly::background_key(0, 1, 2), anomaly::background_key(1, 3, 4)};
  d.findings.push_back(f);
  const std::string j = json::diagnosis_to_json(d);
  int depth = 0;
  for (char c : j) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace vedr::core
